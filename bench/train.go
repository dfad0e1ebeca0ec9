package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/data"
	"repro/internal/nn/autodiff"
	"repro/internal/transport"
	"repro/poseidon"
)

// segmentSpec is what a child process is asked to run.
type segmentSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Ops      int     `json:"ops"`    // timed ops (training) or requests (serve)
	Traced   bool    `json:"traced"` // record spans and layer counters
	RefLoss  float64 `json:"ref_loss"`
	Scratch  string  `json:"scratch"` // directory for shm rings, inside the checkout
	TraceOut string  `json:"trace_out"`
	Repeats  int     `json:"repeats"` // isolated layer drivers only; 0 means driverRepeats
}

// segmentResult is what it reports back: raw per-op samples, so the
// parent owns every statistic.
type segmentResult struct {
	Workload string    `json:"workload"`
	Traced   bool      `json:"traced"`
	Ops      int       `json:"ops"`
	Failed   int       `json:"failed"`
	OpMS     []float64 `json:"op_ms"` // one per op that succeeded
	// OpCPUMS is the CPU time the whole process used during each timed op
	// (training) or between one request's send and the next (serve).
	OpCPUMS     []float64          `json:"op_cpu_ms"`
	WallS       float64            `json:"wall_s"`
	Samples     float64            `json:"samples"`
	EgressBytes int64              `json:"egress_bytes"`
	AllocBytes  uint64             `json:"alloc_bytes"` // heap bytes the process allocated during the timed ops
	Loss        float64            `json:"loss"`
	SetupS      float64            `json:"setup_s"`     // wall clock, process start to first timed op
	SetupCPUS   float64            `json:"setup_cpu_s"` // CPU time over the same span
	MaxRSSMB    float64            `json:"max_rss_mb"`
	Err         string             `json:"err,omitempty"`
	Layer       map[string]float64 `json:"layer,omitempty"`
	Spans       int                `json:"spans,omitempty"`
	SelfMS      map[string]float64 `json:"self_ms,omitempty"` // traced: self time per op by span name
}

// trainSet synthesizes the workload's training data from the seed: 64
// batches per worker, so the timed ops never wrap onto a batch they have
// already seen in the same order.
func trainSet(w workload, seed int64) *data.Dataset {
	return data.Synthetic(seed, 64*w.batch*workers, 10, w.input[0], w.input[1], w.input[2], 0.5)
}

func baseSession(w workload, seed int64, ds *data.Dataset, iters int) *poseidon.Builder {
	return poseidon.NewSession().
		Iterations(iters).Batch(w.batch).LearningRate(learnRate).Seed(seed).
		Mode(w.mode).Overlap(true).ChunkElems(chunkElems).
		Model(w.build).Data(ds, nil)
}

// referenceLoss trains the same seed and op count on an in-process
// channel mesh and returns rank 0's loss at the last op: the value every
// transport and route must reproduce.
func referenceLoss(w workload, seed int64, ops int) (float64, error) {
	iters := warmupOps + ops
	sess, err := baseSession(w, seed, trainSet(w, seed), iters).InProcess(workers).Build()
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	results, err := sess.RunAll()
	if err != nil {
		return 0, err
	}
	return results[0].Curve[iters-1].TrainLoss, nil
}

// freeLoopbackAddrs asks the kernel for n unused loopback ports.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		if err := l.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// dialMeshes forms the workload's real transport, both ranks in this
// process, and returns the cleanup for anything it left on disk.
func dialMeshes(w workload, scratch string) ([]transport.Mesh, func(), error) {
	switch w.transport {
	case overSHM:
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, nil, err
		}
		dir, err := os.MkdirTemp(scratch, "shm-")
		if err != nil {
			return nil, nil, err
		}
		cleanup := func() { os.RemoveAll(dir) }
		meshes, err := dialAll(workers, func(rank int) (transport.Mesh, error) {
			return transport.NewSHMMesh(rank, workers, transport.SHMOptions{Dir: dir})
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		return meshes, cleanup, nil
	default:
		addrs, err := freeLoopbackAddrs(workers)
		if err != nil {
			return nil, nil, err
		}
		meshes, err := dialAll(workers, func(rank int) (transport.Mesh, error) {
			return transport.NewTCPMeshOpts(rank, addrs, transport.TCPOptions{})
		})
		return meshes, func() {}, err
	}
}

// dialAll forms an n-node mesh with every endpoint in this process:
// mesh constructors block until their peers arrive, so the ranks dial
// side by side. On failure whatever did form is closed.
func dialAll(n int, dial func(rank int) (transport.Mesh, error)) ([]transport.Mesh, error) {
	meshes := make([]transport.Mesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := range meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			meshes[rank], errs[rank] = dial(rank)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, m := range meshes {
				if m != nil {
					m.Close()
				}
			}
			return nil, fmt.Errorf("mesh: %w", err)
		}
	}
	return meshes, nil
}

// processCPU is the CPU time, user and system, this process has used
// since it started, on all its threads. Unlike the wall clock it does not
// advance while the host runs somebody else on our cores.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocated is the cumulative count of heap bytes this process has
// allocated, live or since freed. Reading it does not stop the world.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// digest hashes a replica's parameters bit for bit.
func digest(net *autodiff.Network) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range net.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// runTrainSegment runs one segment of a training workload: set-up,
// warm-up ops, then spec.Ops timed ops, each the gap between two of rank
// 0's progress calls. It checks the replicas and the loss before
// reporting; a check that fails marks the whole segment failed.
func runTrainSegment(w workload, spec segmentSpec, procStart time.Time) (segmentResult, []span) {
	res := segmentResult{Workload: w.Name, Traced: spec.Traced, Ops: spec.Ops}
	fail := func(err error) (segmentResult, []span) {
		res.Err = err.Error()
		res.Failed = res.Ops
		return res, nil
	}
	iters := warmupOps + spec.Ops
	ds := trainSet(w, spec.Seed)

	raw, cleanup, err := dialMeshes(w, spec.Scratch)
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	var rec *recorder
	if spec.Traced {
		rec = newRecorder(iters)
	}
	probes := make([]*probeMesh, workers)
	for rank, m := range raw {
		var link *linkModel
		if w.link {
			link = newLinkModel(workers, linkBytesPerS, linkLatencyUS*time.Microsecond)
		}
		r := rec
		if rank != 0 {
			r = nil // the ledger follows rank 0
		}
		probes[rank] = newProbeMesh(m, iters, link, r)
	}
	defer func() {
		for _, m := range raw {
			m.Close()
		}
	}()

	// Rank 0's clock: stamp[k] is when iteration k's progress call ran.
	stamps := make([]time.Time, iters)
	cpuStamps := make([]time.Duration, iters)
	var allocStart uint64
	stallMS := make([]float64, iters)
	var sess0 *poseidon.Session
	onProgress := func(p poseidon.Point) {
		stamps[p.Iter] = time.Now()
		cpuStamps[p.Iter] = processCPU()
		if p.Iter == warmupOps-1 {
			allocStart = heapAllocated()
		}
		if spec.Traced {
			// The stall recorded since the last call is this iteration's
			// wait for the previous round, at the head of its step.
			stallMS[p.Iter] = sess0.Metrics().SnapshotIter().TotalMS
		}
	}

	sessions := make([]*poseidon.Session, workers)
	for rank := range sessions {
		b := baseSession(w, spec.Seed, ds, iters).Mesh(probes[rank])
		if rank == 0 {
			b = b.OnProgress(onProgress)
			if spec.Traced {
				b = b.CollectMetrics()
			}
		}
		if sessions[rank], err = b.Build(); err != nil {
			return fail(err)
		}
	}
	sess0 = sessions[0]

	results := make([]*poseidon.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for rank, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[rank], errs[rank] = s.Run()
		}()
	}
	wg.Wait()
	res.AllocBytes = heapAllocated() - allocStart
	for rank, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("rank %d: %w", rank, err))
		}
	}

	first := warmupOps // first timed iteration
	res.SetupS = stamps[first-1].Sub(procStart).Seconds()
	res.SetupCPUS = cpuStamps[first-1].Seconds()
	res.WallS = stamps[iters-1].Sub(stamps[first-1]).Seconds()
	res.OpMS = make([]float64, 0, spec.Ops)
	for k := first; k < iters; k++ {
		res.OpMS = append(res.OpMS, float64(stamps[k].Sub(stamps[k-1]).Nanoseconds())/1e6)
		res.OpCPUMS = append(res.OpCPUMS, float64((cpuStamps[k]-cpuStamps[k-1]).Nanoseconds())/1e6)
	}
	res.Samples = float64(spec.Ops * w.batch * workers)
	res.EgressBytes = probes[0].sentBetween(first, iters)
	res.Loss = results[0].Curve[iters-1].TrainLoss

	d0, d1 := digest(results[0].Final), digest(results[1].Final)
	if d0 != d1 {
		return fail(fmt.Errorf("replicas differ: rank 0 digest %016x, rank 1 %016x", d0, d1))
	}
	if diff := math.Abs(res.Loss - spec.RefLoss); !(diff <= 1e-6) {
		return fail(fmt.Errorf("loss_final %.9f differs from the channel-mesh reference %.9f", res.Loss, spec.RefLoss))
	}

	if !spec.Traced {
		return res, nil
	}
	for k := first; k < iters; k++ {
		stepStart := stamps[k-1]
		rec.add(stepID(k), 0, k, "train.step", stepStart, stamps[k])
		stall := time.Duration(stallMS[k] * float64(time.Millisecond))
		rec.add(0, stepID(k), k, "comm.stall", stepStart, stepStart.Add(stall))
	}
	spans := rec.snapshot()
	snap, _ := sess0.MetricsSnapshot()
	res.Layer = trainLayerMetrics(spans, first, quietOps(res.OpMS, w.windowOps()))
	if sendS := res.Layer["transport.send_ms_per_op"] * float64(spec.Ops) / 1e3; sendS > 0 {
		res.Layer["transport.send_mb_s"] = float64(res.EgressBytes) / 1e6 / sendS
	}
	res.Layer["kvstore.rounds_per_op"] = float64(snap.KV.RoundsFolded) / float64(iters)
	for _, p := range snap.Params {
		res.Layer["comm.frames_per_op"] += float64(p.FramesSent) / float64(iters)
		switch p.Route {
		case "PS":
			res.Layer["comm.bytes_per_op.ps"] += float64(p.BytesSent) / float64(iters)
		case "SFB":
			res.Layer["comm.bytes_per_op.sfb"] += float64(p.BytesSent) / float64(iters)
		}
	}
	res.Spans = len(spans)
	// The self-time table covers the timed ops; the trace file keeps the
	// warm-up's sends too.
	var timed []span
	for _, s := range spans {
		if s.Op >= first && s.Op < iters {
			timed = append(timed, s)
		}
	}
	res.SelfMS = selfMSPerOp(timed, spec.Ops)
	return res, spans
}

// trainLayerMetrics reads the per-layer numbers off a traced segment's
// spans, as means over the timed ops in keep (indices counted from the
// first timed iteration): the segment's quietest windows.
func trainLayerMetrics(spans []span, first int, keep map[int]bool) map[string]float64 {
	timed := func(byOp map[int]float64) float64 {
		sum := 0.0
		for op, ms := range byOp {
			if keep[op-first] {
				sum += ms
			}
		}
		return sum / float64(len(keep))
	}
	step := timed(sumByOp(spans, "train.step"))
	stall := timed(sumByOp(spans, "comm.stall"))
	send := timed(sumByOp(spans, "transport.send"))
	wire := timed(sumByOp(spans, "link.wire"))

	// Step start to the first frame of that iteration's gradients.
	stepStart := make(map[int]float64)
	firstSend := make(map[int]float64)
	for _, s := range spans {
		switch s.Name {
		case "train.step":
			stepStart[s.Op] = s.StartUS
		case "mesh.send":
			if t, ok := firstSend[s.Op]; !ok || s.StartUS < t {
				firstSend[s.Op] = s.StartUS
			}
		}
	}
	var offsets []float64
	for op, t0 := range stepStart {
		if t, ok := firstSend[op]; ok && keep[op-first] {
			offsets = append(offsets, (t-t0)/1e3)
		}
	}

	m := map[string]float64{
		"train.compute_ms_per_op":        step - stall,
		"comm.stall_ms_per_op":           stall,
		"transport.send_ms_per_op":       send,
		"transport.recv_wait_ms_per_op":  timed(sumByOp(spans, "transport.recv_wait")),
		"transport.first_send_offset_ms": mean(offsets),
		"link.wire_ms_per_op":            wire,
		"link.queue_ms_per_op":           timed(sumByOp(spans, "link.queue")),
	}
	if step > 0 {
		m["comm.stall_share"] = stall / step
	}
	// The share of communication time hidden behind compute: the wait-free
	// backpropagation claim as a number. A stall as long as the
	// communication itself (or longer: it also waits for the peer's
	// compute) hides nothing.
	m["comm.overlap_share"] = 0
	if send+wire > stall {
		m["comm.overlap_share"] = 1 - stall/(send+wire)
	}
	return m
}
