package main

import (
	"math/rand"

	"repro/internal/nn/autodiff"
	"repro/poseidon"
)

// metricSpec names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none. BENCHMARK.json repeats these tables for the
// driver, and TestBenchmarkJSONMatchesSpec keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd lists the bounded metrics, the same names on every workload:
// what running the system costs its user in things that can be counted,
// plus the set-up time the contract demands. No steady-state timing is
// among them: on a shared host neither the clock nor CPU time repeats
// inside any bound the contract allows (README, "Noise"), so the timings
// are reported unbounded, as timings.
var endToEnd = []metricSpec{
	{"egress_bytes_per_op", "B/op", lower, 0.05},
	{"alloc_bytes_per_op", "B/op", lower, 0.10},
	{"mem_peak_mb", "MB", lower, 0.10},
	{"ok_share", "share", higher, 0.01},
	{"setup_s", "s", lower, 0.25},
}

// timings lists what the user sees on the clock and what the process
// spends in CPU time. Every pass measures them on its untraced segments;
// the driver reads them with the per-layer metrics, which carry no bound.
var timings = []metricSpec{
	{"wall.samples_per_s", "1/s", higher, 0},
	{"wall.op_ms_p50", "ms", lower, 0},
	{"wall.op_ms_p80", "ms", lower, 0},
	{"wall.slo_share", "share", higher, 0},
	{"cpu.ms_per_op", "ms", lower, 0},
	{"cpu.setup_s", "s", lower, 0},
}

// perLayer lists the unbounded numbers: the timings, then the
// single-layer ones read off the traced pass, then the isolated drivers
// (layers.go).
var perLayer = append(append([]metricSpec{}, timings...), []metricSpec{
	{"train.compute_ms_per_op", "ms", lower, 0},
	{"comm.stall_ms_per_op", "ms", lower, 0},
	{"comm.stall_share", "share", lower, 0},
	{"comm.overlap_share", "share", higher, 0},
	{"comm.frames_per_op", "count", lower, 0},
	{"comm.bytes_per_op.ps", "B/op", lower, 0},
	{"comm.bytes_per_op.sfb", "B/op", lower, 0},
	{"kvstore.rounds_per_op", "count", lower, 0},
	{"transport.send_ms_per_op", "ms", lower, 0},
	{"transport.send_mb_s", "MB/s", higher, 0},
	{"transport.recv_wait_ms_per_op", "ms", lower, 0},
	{"transport.first_send_offset_ms", "ms", lower, 0},
	{"link.wire_ms_per_op", "ms", lower, 0},
	{"link.queue_ms_per_op", "ms", lower, 0},
	{"serve.batch_rows_mean", "count", higher, 0},
	{"serve.requests", "count", higher, 0},
	{"serve.shed", "count", lower, 0},
	{"serve.rate_limited", "count", lower, 0},
	{"serve.op_ms_p99", "ms", lower, 0},
	{"loadgen.late_ms_p90", "ms", lower, 0},
	{"trace.overhead_share", "share", lower, 0},

	{"tensor.mul_gflops", "GFLOP/s", higher, 0},
	{"tensor.mul_transa_gflops", "GFLOP/s", higher, 0},
	{"tensor.mul_transb_gflops", "GFLOP/s", higher, 0},
	{"tensor.sf_reconstruct_ms", "ms", lower, 0},
	{"tensor.encode_mb_s", "MB/s", higher, 0},
	{"tensor.decode_mb_s", "MB/s", higher, 0},
	{"autodiff.fc_step_ms", "ms", lower, 0},
	{"autodiff.conv_step_ms", "ms", lower, 0},
	{"sfb.offer_ms", "ms", lower, 0},
	{"kvstore.fold_mb_s", "MB/s", higher, 0},
	{"comm.sync_ms_per_round.ps", "ms", lower, 0},
	{"comm.sync_ms_per_round.sfb", "ms", lower, 0},
	{"transport.tcp_rtt_us", "us", lower, 0},
	{"transport.tcp_mb_s", "MB/s", higher, 0},
	{"transport.tcp_copied_bytes_per_frame", "B", lower, 0},
	{"transport.shm_rtt_us", "us", lower, 0},
	{"transport.shm_mb_s", "MB/s", higher, 0},
	{"poseidon.plan_us", "us", lower, 0},
	{"snapshot.capture_ms", "ms", lower, 0},
	{"snapshot.predict_us_per_row", "us", lower, 0},
	{"snapshot.encode_mb_s", "MB/s", higher, 0},
	{"serve.handler_us_p50", "us", lower, 0},
	{"rate.allow_ns", "ns", lower, 0},
	{"fleet.ring_lookup_ns", "ns", lower, 0},
	{"fleet.snapshot_pull_ms", "ms", lower, 0},
	{"data.batch_us", "us", lower, 0},
}...)

// Shapes every workload shares. Workers and generator connections are
// fixed rather than read from the machine so a workload is the same
// inputs everywhere.
const (
	workers    = 2
	chunkElems = 65536
	learnRate  = 0.01
	warmupOps  = 10

	linkBytesPerS = 100e6 // fc_dense_lim's modeled link
	linkLatencyUS = 100

	serveRate       = 320 // requests per second, open loop
	serveConns      = 2
	serveTenants    = 8
	serveInstances  = 4
	serveWarmShare  = 0.25 // warm-up as a share of a segment's timed span
	serveSLOMS      = 20.0
	serveCaptureMS  = 100
	serveBodies     = 256 // distinct request bodies generated from the seed
	serveLateWarnMS = 2.0
)

type transportKind int

const (
	overTCP transportKind = iota
	overSHM
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string

	// Training workloads (serve is false).
	build     func(rng *rand.Rand) *autodiff.Network
	input     [3]int // C, H, W of one sample
	batch     int
	mode      poseidon.SyncMode
	transport transportKind
	link      bool // wrap the mesh in the modeled link

	serve bool

	// opsPerS is the op rate the seed code reaches, fixed here so that
	// -seconds maps to the same op count on every machine and commit.
	opsPerS float64
	// sloMS is the constant limit behind wall.slo_share: about 2.5x the seed's
	// best-segment op_ms_p50 for training, 20 ms from due time for serve.
	sloMS float64
}

func fcNet(rng *rand.Rand) *autodiff.Network {
	return autodiff.MLPNet(1024, []int{768, 768}, 10, rng)
}

func convNet(rng *rand.Rand) *autodiff.Network {
	net, _, _, _ := autodiff.CIFARQuickNet(2, 10, rng)
	return net
}

func serveNet(rng *rand.Rand) *autodiff.Network {
	return autodiff.MLPNet(256, []int{256, 256}, 10, rng)
}

var workloads = []workload{
	{
		Name:  "fc_dense_lim",
		Why:   "dense PS pushes of a 5.5 MB MLP over a modeled 100 MB/s link: wire time is over half the op, so bytes saved and compute/comm overlap show and a faster GEMM barely does",
		build: fcNet, input: [3]int{1, 32, 32}, batch: 8, mode: poseidon.PSOnly,
		transport: overTCP, link: true, opsPerS: 11.5, sloMS: 215,
	},
	{
		Name:  "fc_hybrid_tcp",
		Why:   "the same MLP with Algorithm 1 routing FC weights over SFB on raw TCP loopback: 138 KB/op, so the op is GEMMs, SF reconstruction and apply, which a wire change does not move",
		build: fcNet, input: [3]int{1, 32, 32}, batch: 8, mode: poseidon.Hybrid,
		transport: overTCP, opsPerS: 30, sloMS: 80,
	},
	{
		Name:  "conv_ps_shm",
		Why:   "CIFAR-quick CNN over shared-memory rings: conv-loop compute with eight small tensors per op, stressing Conv2D/MaxPool2 and per-frame cost, little bandwidth",
		build: convNet, input: [3]int{3, 16, 16}, batch: 16, mode: poseidon.PSOnly,
		transport: overSHM, opsPerS: 26, sloMS: 97,
	},
	{
		Name:  "serve_open",
		Why:   "open-loop 320 req/s at the serving gateway while a new snapshot version lands every 100 ms: the read path beside the swap, timed from each request's due time",
		serve: true, opsPerS: serveRate, sloMS: serveSLOMS,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timedOps maps a segment's share of -seconds to a fixed op count.
func (w workload) timedOps(segmentSeconds float64) int {
	n := int(w.opsPerS*segmentSeconds + 0.5)
	if n < 5 {
		n = 5
	}
	return n
}
