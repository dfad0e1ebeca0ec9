package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestLinkModelWireTimeAndSerialisation(t *testing.T) {
	l := newLinkModel(3, 100e6, 100*time.Microsecond)
	if got, want := l.wireTime(1_000_000), 10*time.Millisecond+100*time.Microsecond; got != want {
		t.Fatalf("wire time of 1 MB at 100 MB/s + 100us = %v, want %v", got, want)
	}
	now := time.Unix(0, 0)
	// Two frames to the same destination queue behind each other...
	s1, e1 := l.reserve(1, 500_000, now)
	s2, e2 := l.reserve(1, 500_000, now)
	if !s1.Equal(now) || !s2.Equal(e1) || e2.Sub(s1) != 2*l.wireTime(500_000) {
		t.Errorf("same destination: frames [%v,%v] [%v,%v] are not back to back from %v", s1, e1, s2, e2, now)
	}
	// ...while another destination's wire is its own.
	if s3, _ := l.reserve(2, 500_000, now); !s3.Equal(now) {
		t.Errorf("other destination started at %v, want %v: wires must be independent", s3, now)
	}
	// A frame arriving after the wire went idle starts on arrival.
	later := e2.Add(time.Second)
	if s4, _ := l.reserve(1, 1, later); !s4.Equal(later) {
		t.Errorf("idle wire: frame started at %v, want its arrival %v", s4, later)
	}
}

// TestProbeMeshDelaysAndCounts sends through a real channel mesh wrapped
// in the link model and checks the modeled time, the byte count and the
// spans.
func TestProbeMeshDelaysAndCounts(t *testing.T) {
	ends := transport.NewChanCluster(2)
	defer ends[0].Close()
	rec := newRecorder(4)
	link := newLinkModel(2, 10e6, time.Millisecond)
	m := newProbeMesh(ends[0], 4, link, rec)

	payload := make([]byte, 20_000) // 2 ms at 10 MB/s, + 1 ms latency
	msgs := []transport.Message{
		{Type: transport.MsgPush, Iter: 2, Payload: payload},
		{Type: transport.MsgPush, Iter: 2, Payload: payload},
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, msg := range msgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Send(1, msg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	wire := transport.WireBytes(msgs[0])
	if min := 2 * link.wireTime(wire); time.Since(start) < min {
		t.Errorf("two frames to one destination took %v, below the serial wire time %v", time.Since(start), min)
	}
	if err := m.Send(0, transport.Message{Type: transport.MsgPush, Iter: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if bytes := m.sentBetween(2, 3); bytes != int64(2*wire) {
		t.Errorf("iteration 2 counted %d bytes, want %d (loopback is free)", bytes, 2*wire)
	}
	if b := m.sentBetween(0, 2); b != 0 {
		t.Errorf("iterations 0-1 counted %d bytes, want 0", b)
	}

	spans := rec.snapshot()
	wireMS := sumByOp(spans, "link.wire")[2]
	if want := 2 * float64(link.wireTime(wire)) / 1e6; math.Abs(wireMS-want) > 1e-6 {
		t.Errorf("link.wire spans of op 2 sum to %v ms, want %v", wireMS, want)
	}
	if q := sumByOp(spans, "link.queue")[2]; q < float64(link.wireTime(wire))/1e6*0.9 {
		t.Errorf("link.queue of op 2 = %v ms: the second frame should have queued for about one wire time", q)
	}
	for _, s := range spans {
		if s.Name == "mesh.send" && s.Parent != stepID(2) {
			t.Errorf("mesh.send span has parent %d, want the step span of op 2 (%d)", s.Parent, stepID(2))
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", StartUS: 0, EndUS: 100_000},
		{ID: 2, Parent: 1, Name: "stall", StartUS: 0, EndUS: 30_000},
		// Two overlapping children: covered once.
		{ID: 3, Parent: 1, Name: "a", StartUS: 50_000, EndUS: 70_000},
		{ID: 4, Parent: 1, Name: "b", StartUS: 60_000, EndUS: 80_000},
		// An asynchronous child that outlives its parent: clipped.
		{ID: 5, Parent: 1, Name: "send", StartUS: 95_000, EndUS: 140_000},
		{ID: 6, Parent: 5, Name: "wire", StartUS: 100_000, EndUS: 130_000},
	}
	self := selfTimesMS(spans)
	// 100 - 30 (stall) - 30 (a+b union) - 5 (send inside the step) = 35.
	if got := self[1]; math.Abs(got-35) > 1e-9 {
		t.Errorf("step self time = %v ms, want 35", got)
	}
	if got := self[5]; math.Abs(got-15) > 1e-9 {
		t.Errorf("send self time = %v ms, want 15 (45 minus its 30 ms wire child)", got)
	}
	if got := self[2]; math.Abs(got-30) > 1e-9 {
		t.Errorf("a leaf's self time = %v ms, want its duration 30", got)
	}
}

func TestOpenLoopScheduleAndLateness(t *testing.T) {
	t0 := time.Unix(100, 0)
	if got := dueTime(t0, 320, 320); !got.Equal(t0.Add(time.Second)) {
		t.Errorf("request 320 at 320/s is due at %v, want one second in", got)
	}
	// Due times never depend on how earlier requests went: a stalled
	// request 7 leaves request 8 due where it always was, so the stall
	// shows up as request 8's latency from its due time.
	if gap := dueTime(t0, 8, 320).Sub(dueTime(t0, 7, 320)); gap != 3125*time.Microsecond {
		t.Errorf("gap between due times = %v, want 3.125 ms", gap)
	}
	r := request{due: t0, sent: t0.Add(2 * time.Millisecond), done: t0.Add(6 * time.Millisecond)}
	rec := newRecorder(1)
	rec.t0 = t0
	rec.add(stepID(0), 0, 0, "serve.request", r.due, r.done)
	rec.add(0, stepID(0), 0, "loadgen.late", r.due, r.sent)
	spans := rec.snapshot()
	if late := sumByOp(spans, "loadgen.late")[0]; late != 2 {
		t.Errorf("lateness = %v ms, want 2", late)
	}
	// Latency counts from the due time; what is left after the generator's
	// lateness is the gateway's.
	if self := selfTimesMS(spans)[stepID(0)]; self != 4 {
		t.Errorf("serve.request self time = %v ms, want 4 (6 from due minus 2 late)", self)
	}
}

func TestTenantFloors(t *testing.T) {
	var f tenantFloors
	if err := f.observe(3, f.floor(3), 5); err != nil {
		t.Fatal(err)
	}
	// A request sent before version 5 was seen may still answer 4...
	if err := f.observe(3, 0, 4); err != nil {
		t.Errorf("overlapping request rejected: %v", err)
	}
	// ...one sent after it may not.
	if err := f.observe(3, f.floor(3), 4); err == nil {
		t.Error("a reply older than the tenant's floor was accepted")
	}
	if err := f.observe(2, f.floor(2), 1); err != nil {
		t.Errorf("tenants must not share floors: %v", err)
	}
}

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, spec.go %q / %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i] != m {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, spec.go %+v", i, b.EndToEnd[i], m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, spec.go %+v", i, got, m)
		}
	}
}

// inProcessChild runs a segment in the test process, so peak memory is
// the test binary's own. The isolated drivers run once, at one repeat, however
// many passes ask for them: that keeps the smoke inside tier-1's budget.
var isolatedOnce = sync.OnceValue(func() segmentResult {
	return runSegment(segmentSpec{Workload: isolatedLayers, Scratch: os.TempDir(), Repeats: 1}, time.Now())
})

func inProcessChild(spec segmentSpec) (segmentResult, error) {
	if spec.Workload == isolatedLayers {
		return isolatedOnce(), nil
	}
	return runSegment(spec, time.Now()), nil
}

// TestSmokeEveryWorkload runs each workload as one segment of five timed
// ops plus the traced pass, and demands every metric BENCHMARK.json
// names, with its unit, and a clean verdict. The workloads run side by
// side: nothing here reads a timing.
func TestSmokeEveryWorkload(t *testing.T) {
	b := readBenchmarkJSON(t)
	var mu sync.Mutex
	sourced := map[string]bool{"trace.overhead_share": true} // derived from two passes
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			smokeWorkload(t, b, w, func(name string) {
				mu.Lock()
				sourced[name] = true
				mu.Unlock()
			})
		}
	})
	// Every per-layer metric has a source: an isolated driver that ran, or
	// the traced pass of at least one workload.
	for _, m := range perLayer {
		if !sourced[m.Name] {
			t.Errorf("per-layer metric %s: no isolated driver and no traced pass reported it", m.Name)
		}
	}
}

func smokeWorkload(t *testing.T, b benchmarkJSON, w workload, sourced func(name string)) {
	t.Run(w.Name, func(t *testing.T) {
		t.Parallel()
		cfg := runConfig{Workloads: []workload{w}, Seed: 7, Segments: 1, SegmentSeconds: 0,
			Traced: true, Scratch: t.TempDir(), child: inProcessChild}
		rep, err := runSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Workloads[0]
		if !r.correct() {
			t.Errorf("%d of %d failed: %v", r.Failed, r.Attempted, r.Errors)
		}
		if r.Ops != 5 {
			t.Errorf("%d timed ops per segment, want the floor of 5", r.Ops)
		}
		for _, traced := range []bool{false, true} {
			var line driverLine
			out := new(lineBuffer)
			if code := printDriverLine(out, r, traced); code != 0 {
				t.Fatalf("driver line exit %d", code)
			}
			if err := json.Unmarshal(out.buf, &line); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for _, m := range b.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range b.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("traced=%v: metric %s: emitted %+v (present %v), want unit %q", traced, name, got, ok, unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
				// Side by side on two CPUs every op of a 5-op segment can miss
				// its limit; every other timing is never 0.
				timing := strings.HasPrefix(name, "wall.") || strings.HasPrefix(name, "cpu.")
				if traced && timing && got.Value == 0 && name != "wall.slo_share" {
					t.Errorf("timing %s is 0", name)
				}
			}
		}
		if _, err := os.Stat(traceFile(cfg, w)); err != nil {
			t.Errorf("no trace file: %v", err)
		}
		for name := range r.Traced.Layer {
			sourced(name)
		}
		for name := range r.Timings {
			sourced(name)
		}
		for name, v := range rep.Isolated {
			if v > 0 {
				sourced(name)
			}
		}
	})
}

type lineBuffer struct{ buf []byte }

func (l *lineBuffer) Write(p []byte) (int, error) { l.buf = append(l.buf, p...); return len(p), nil }

func TestWindowsAndBestWindowMetrics(t *testing.T) {
	if got := cutWindows(30, 12); len(got) != 2 || got[0] != [2]int{0, 12} || got[1] != [2]int{12, 30} {
		t.Errorf("cutWindows(30, 12) = %v, want [0,12) and [12,30): the tail joins the last window", got)
	}
	if got := cutWindows(5, 12); len(got) != 1 || got[0] != [2]int{0, 5} {
		t.Errorf("cutWindows(5, 12) = %v, want one window of everything", got)
	}
	w := workload{Name: "t", opsPerS: 24, sloMS: 25, batch: 1}
	// Three windows of 12 ops: a noisy one, a quiet one, a noisy one.
	var ops []float64
	for i := 0; i < 36; i++ {
		ms := 30.0
		if i >= 12 && i < 24 {
			ms = 10 + float64(i-12) // 10..21
		}
		ops = append(ops, ms)
	}
	// CPU time per op: twice the wall time, as on two busy cores.
	cpu := make([]float64, len(ops))
	for i, ms := range ops {
		cpu[i] = 2 * ms
	}
	m := segmentMetrics(w, segmentResult{Ops: 36, OpMS: ops, OpCPUMS: cpu, Samples: 72, EgressBytes: 3600, AllocBytes: 7200, SetupS: 1.5, SetupCPUS: 2.5})
	if m["wall.op_ms_p50"] != 15 || m["wall.op_ms_p80"] != 19 {
		t.Errorf("best window p50/p80 = %v/%v, want 15/19 (the quiet window's)", m["wall.op_ms_p50"], m["wall.op_ms_p80"])
	}
	if want := 2 * 1e3 / 15.5; math.Abs(m["wall.samples_per_s"]-want) > 1e-9 {
		t.Errorf("wall.samples_per_s = %v, want %v (two samples per op at the quiet window's mean)", m["wall.samples_per_s"], want)
	}
	if want := 12.0 / 36; m["wall.slo_share"] != want {
		t.Errorf("wall.slo_share = %v, want %v: the limit is judged on every op, not the best window", m["wall.slo_share"], want)
	}
	if m["cpu.ms_per_op"] != 31 {
		t.Errorf("cpu.ms_per_op = %v, want 31: the mean of the cheapest window", m["cpu.ms_per_op"])
	}
	if m["setup_s"] != 1.5 || m["cpu.setup_s"] != 2.5 {
		t.Errorf("setup_s/cpu.setup_s = %v/%v, want 1.5 (clock) and 2.5 (CPU)", m["setup_s"], m["cpu.setup_s"])
	}
	if m["egress_bytes_per_op"] != 100 || m["alloc_bytes_per_op"] != 200 || m["ok_share"] != 1 {
		t.Errorf("egress/alloc/ok = %v/%v/%v, want 100/200/1", m["egress_bytes_per_op"], m["alloc_bytes_per_op"], m["ok_share"])
	}
	quiet := quietOps(ops, w.windowOps())
	if len(quiet) != 12 || !quiet[12] || !quiet[23] || quiet[0] {
		t.Errorf("quietOps picked %d ops (12..23 wanted): %v", len(quiet), quiet)
	}
}

func TestAggregateBestOfK(t *testing.T) {
	w := workload{Name: "t", opsPerS: 24, sloMS: 100}
	seg := func(ms, setup, rss float64, egress int64) segmentResult {
		ops := make([]float64, 12)
		for i := range ops {
			ops[i] = ms
		}
		return segmentResult{Ops: 12, OpMS: ops, OpCPUMS: ops, Samples: 24, EgressBytes: egress, AllocBytes: uint64(rss) * 12,
			SetupS: setup, SetupCPUS: setup / 2, MaxRSSMB: rss}
	}
	metrics := func(segs ...segmentResult) []map[string]float64 {
		var per []map[string]float64
		for _, s := range segs {
			per = append(per, segmentMetrics(w, s))
		}
		return per
	}
	all := append(append([]metricSpec{}, endToEnd...), timings...)
	got, err := aggregate(w, all, metrics(seg(30, 0.9, 50, 1200), seg(20, 1.1, 70, 1200), seg(40, 0.7, 60, 1200)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.ms_per_op": 20, "wall.op_ms_p50": 20, "wall.op_ms_p80": 20, // lower is better: the minimum
		"wall.samples_per_s": 2 * 1e3 / 20, // higher is better: the maximum
		"cpu.setup_s":        0.35,
		"setup_s":            0.9, "mem_peak_mb": 60, "alloc_bytes_per_op": 60, // the median segment
		"egress_bytes_per_op": 100, "wall.slo_share": 1, "ok_share": 1,
	}
	for name, v := range want {
		if math.Abs(got[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
	// A count that differs between segments fails the run.
	if _, err := aggregate(w, endToEnd, metrics(seg(30, 1, 50, 1200), seg(30, 1, 50, 1212))); err == nil {
		t.Error("segments disagreeing on egress bytes were aggregated without an error")
	}
	// A failed segment counts all its ops as failed.
	bad := seg(30, 1, 50, 1200)
	bad.Err, bad.Failed = "replicas differ", 12
	got, err = aggregate(w, endToEnd, metrics(seg(30, 1, 50, 1200), bad))
	if err != nil {
		t.Fatal(err)
	}
	if got["ok_share"] != 0.5 {
		t.Errorf("ok_share with one failed segment of two = %v, want 0.5", got["ok_share"])
	}
}
