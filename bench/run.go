package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// runConfig is one pass over a set of workloads.
type runConfig struct {
	Workloads []workload
	Seed      int64
	Segments  int // K untraced segments per workload
	// SegmentSeconds is the timed span of one segment at the seed's op
	// rate; workload.timedOps turns it into a fixed op count.
	SegmentSeconds float64
	Traced         bool   // add the traced pass and the isolated layer drivers
	Scratch        string // where shm rings and trace files go, inside the checkout
	TraceOut       string // directory for the traced pass's span files; empty: Scratch

	// child runs one segment in a fresh process; tests substitute an
	// in-process call.
	child func(segmentSpec) (segmentResult, error)
}

// workloadReport is everything one pass learned about one workload.
type workloadReport struct {
	Workload string  `json:"workload"`
	Ops      int     `json:"ops_per_segment"`
	RefLoss  float64 `json:"reference_loss"`
	// LossFinal is the loss at the last timed op (training) or the mean
	// -log p(true label) over served instances. It is checked, not
	// bounded: it moves fourfold with the seed, so it cannot be a metric
	// the driver compares across seeds.
	LossFinal float64         `json:"loss_final"`
	Segments  []segmentResult `json:"-"` // raw per-op samples stay out of the record
	Traced    *segmentResult  `json:"-"`
	// PerSegment is each untraced segment's own end-to-end numbers, in
	// the order they ran.
	PerSegment []map[string]float64 `json:"segments"`
	EndToEnd   map[string]float64   `json:"end_to_end"`
	Timings    map[string]float64   `json:"timings"`
	Layer      map[string]float64   `json:"per_layer,omitempty"`
	// SelfMS is the traced pass's self time per op by span name.
	SelfMS    map[string]float64 `json:"trace_self_ms_per_op,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

func (r *workloadReport) correct() bool { return len(r.Errors) == 0 && r.Failed == 0 }

type runReport struct {
	Seed      int64              `json:"seed"`
	Segments  int                `json:"segments"`
	SegmentS  float64            `json:"segment_seconds"`
	ElapsedS  float64            `json:"elapsed_s"`
	Workloads []workloadReport   `json:"workloads"`
	Isolated  map[string]float64 `json:"isolated_layers,omitempty"`
}

// execChild re-executes this binary for one segment and reads the
// result off its standard output.
func execChild(spec segmentSpec) (segmentResult, error) {
	var res segmentResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-segment-spec", string(arg))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("segment %s: %w", spec.Workload, err)
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return res, fmt.Errorf("segment %s: reading result: %w", spec.Workload, err)
	}
	return res, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// runSegment is the child's side: run what spec names, write the trace
// if asked, and report.
func runSegment(spec segmentSpec, procStart time.Time) segmentResult {
	if spec.Workload == isolatedLayers {
		return segmentResult{Workload: isolatedLayers, Layer: runLayerDrivers(spec.Scratch, spec.Repeats)}
	}
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return segmentResult{Workload: spec.Workload, Err: "unknown workload"}
	}
	var res segmentResult
	var spans []span
	if w.serve {
		res, spans = runServeSegment(w, spec, procStart)
	} else {
		res, spans = runTrainSegment(w, spec, procStart)
	}
	if spec.TraceOut != "" && spans != nil {
		if err := writeTrace(spec.TraceOut, spans); err != nil {
			res.Err = "writing trace: " + err.Error()
		}
	}
	res.MaxRSSMB = peakRSSMB()
	return res
}

// peakRSSMB is this process's peak resident set, VmHWM in
// /proc/self/status. The parent cannot read it off the child's rusage:
// Linux carries ru_maxrss across exec, so a child would report its
// parent's size at fork if that was larger; VmHWM belongs to the address
// space and starts afresh at exec.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runSet runs every workload's segments round-robin (A B C D A B C D ...)
// so that a slow spell on the host lands on all workloads alike and never
// on all of one workload's segments, then the traced pass, then folds
// the segments into metrics.
func runSet(cfg runConfig) (runReport, error) {
	began := time.Now()
	rep := runReport{Seed: cfg.Seed, Segments: cfg.Segments, SegmentS: cfg.SegmentSeconds}
	reports := make([]workloadReport, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		r := &reports[i]
		r.Workload = w.Name
		r.Ops = w.timedOps(cfg.SegmentSeconds)
		if !w.serve {
			loss, err := referenceLoss(w, cfg.Seed, r.Ops)
			if err != nil {
				return rep, fmt.Errorf("%s: reference run: %w", w.Name, err)
			}
			r.RefLoss = loss
		}
	}
	spec := func(i int, traced bool) segmentSpec {
		return segmentSpec{
			Workload: cfg.Workloads[i].Name, Seed: cfg.Seed, Ops: reports[i].Ops,
			Traced: traced, RefLoss: reports[i].RefLoss, Scratch: cfg.Scratch,
		}
	}
	for seg := 0; seg < cfg.Segments; seg++ {
		for i := range cfg.Workloads {
			res, err := cfg.child(spec(i, false))
			if err != nil {
				return rep, err
			}
			reports[i].Segments = append(reports[i].Segments, res)
		}
	}
	if cfg.Traced {
		for i, w := range cfg.Workloads {
			s := spec(i, true)
			s.TraceOut = traceFile(cfg, w)
			if err := os.MkdirAll(filepath.Dir(s.TraceOut), 0o755); err != nil {
				return rep, err
			}
			res, err := cfg.child(s)
			if err != nil {
				return rep, err
			}
			reports[i].Traced = &res
		}
		res, err := cfg.child(segmentSpec{Workload: isolatedLayers, Scratch: cfg.Scratch})
		if err != nil {
			return rep, err
		}
		rep.Isolated = res.Layer
	}
	for i, w := range cfg.Workloads {
		finish(w, &reports[i], rep.Isolated)
	}
	rep.Workloads = reports
	rep.ElapsedS = time.Since(began).Seconds()
	return rep, nil
}

func traceFile(cfg runConfig, w workload) string {
	dir := cfg.TraceOut
	if dir == "" {
		dir = cfg.Scratch
	}
	return filepath.Join(dir, "trace-"+w.Name+".json")
}

// finish turns a workload's segments into its metrics and its verdict.
func finish(w workload, r *workloadReport, isolated map[string]float64) {
	for i, s := range r.Segments {
		r.Attempted += s.Ops
		r.Failed += s.Failed
		r.PerSegment = append(r.PerSegment, segmentMetrics(w, s))
		if i == 0 {
			r.LossFinal = s.Loss
		}
		switch {
		case s.Err != "":
			r.Errors = append(r.Errors, fmt.Sprintf("segment %d: %s", i, s.Err))
		case !w.serve && s.Loss != r.LossFinal:
			r.Errors = append(r.Errors, fmt.Sprintf("segment %d: loss_final %v differs from segment 0's %v", i, s.Loss, r.LossFinal))
		}
	}
	e2e, err := aggregate(w, endToEnd, r.PerSegment)
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
		r.Failed = r.Attempted
	}
	r.EndToEnd = e2e
	r.Timings, _ = aggregate(w, timings, r.PerSegment) // no counts among them: nothing to disagree on
	if r.Traced == nil {
		return
	}
	t := r.Traced
	r.SelfMS = t.SelfMS
	r.Attempted += t.Ops
	r.Failed += t.Failed
	if t.Err != "" {
		r.Errors = append(r.Errors, "traced segment: "+t.Err)
	}
	r.Layer = make(map[string]float64, len(perLayer))
	for _, spec := range perLayer {
		r.Layer[spec.Name] = 0 // a layer the workload does not reach reads 0
	}
	for k, v := range isolated {
		r.Layer[k] = v
	}
	for k, v := range t.Layer {
		r.Layer[k] = v
	}
	for k, v := range r.Timings {
		r.Layer[k] = v
	}
	// In CPU time, which the host's other tenants move least, and against
	// the median untraced segment, not the best one: the traced pass is a
	// single segment and gets no pick of the cheapest.
	var untraced []float64
	for _, m := range r.PerSegment {
		untraced = append(untraced, m["cpu.ms_per_op"])
	}
	if base := percentile(untraced, 0.50); base > 0 {
		r.Layer["trace.overhead_share"] = segmentMetrics(w, *t)["cpu.ms_per_op"]/base - 1
	}
}
