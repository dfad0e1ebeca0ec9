// Package repro's root benchmark harness: one testing.B benchmark per
// table/figure in the Poseidon paper's evaluation. Each benchmark runs
// the corresponding experiment driver (internal/experiments) and reports
// custom metrics where a single headline number exists (speedups,
// traffic, stall fractions), so `go test -bench=. -benchmem` regenerates
// the full evaluation.
package repro

import (
	"io"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/nn"
)

func benchExperiment(b *testing.B, name string) {
	e, ok := experiments.Find(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard)
	}
}

// BenchmarkTable1 regenerates the communication-cost table.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable3 regenerates the model-statistics table.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkSection22AlexNet regenerates the worked bandwidth example.
func BenchmarkSection22AlexNet(b *testing.B) { benchExperiment(b, "alexnet") }

// BenchmarkFig5 regenerates the Caffe-engine scalability figure.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates the TensorFlow-engine scalability figure.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates the compute/stall breakdown.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates the limited-bandwidth figure.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates the ResNet-152 scaling + convergence figure.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates the per-node traffic comparison.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates the real-training convergence comparison
// (exact vs 1-bit) on the functional plane.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkMultiGPU regenerates the multi-GPU local-aggregation table.
func BenchmarkMultiGPU(b *testing.B) { benchExperiment(b, "multigpu") }

// BenchmarkFuncScale regenerates the functional-plane overlap
// comparison (real training over bandwidth-modeled links).
func BenchmarkFuncScale(b *testing.B) { benchExperiment(b, "funcscale") }

// BenchmarkAblations regenerates the design-choice ablations.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// Headline single-number benchmarks, reported as custom metrics so the
// paper's key claims are visible straight from `go test -bench`.

// BenchmarkHeadlineInceptionV3_32Nodes reports the paper's headline:
// Poseidon-TensorFlow at 31.5x on 32 nodes (vs TF's 20x).
func BenchmarkHeadlineInceptionV3_32Nodes(b *testing.B) {
	var pos, tf float64
	for i := 0; i < b.N; i++ {
		pos = engine.Run(engine.Config{Model: nn.InceptionV3(), Workers: 32,
			Strategy: engine.HybComm, Engine: "tensorflow"}).Speedup
		tf = engine.Run(engine.Config{Model: nn.InceptionV3(), Workers: 32,
			Strategy: engine.TFBaseline, Engine: "tensorflow"}).Speedup
	}
	b.ReportMetric(pos, "poseidon-x")
	b.ReportMetric(tf, "tf-x")
}

// BenchmarkHeadlineVGG22K_10GbE reports the limited-bandwidth headline:
// near-linear Poseidon vs ~4x for a PS at 16 nodes and 10GbE.
func BenchmarkHeadlineVGG22K_10GbE(b *testing.B) {
	var pos, ps float64
	for i := 0; i < b.N; i++ {
		pos = engine.Run(engine.Config{Model: nn.VGG19_22K(), Workers: 16,
			Strategy: engine.HybComm, Engine: "caffe", Bandwidth: netsim.Gbps(10)}).Speedup
		ps = engine.Run(engine.Config{Model: nn.VGG19_22K(), Workers: 16,
			Strategy: engine.SeqPS, Engine: "caffe", Bandwidth: netsim.Gbps(10)}).Speedup
	}
	b.ReportMetric(pos, "poseidon-x")
	b.ReportMetric(ps, "ps-x")
}

// BenchmarkHeadlineFuncOverlap reports the functional-plane headline:
// wall-clock ms/iter for serialized vs pooled chunked pushes on the
// FC-heavy model over 20 MB/s links (real SGD, real bytes, modeled
// wire time). Both arms launch each layer as its backward step ends;
// the pooled arm's sends then run beside the rest of the pass and
// beside each other, so its number must come out lower.
func BenchmarkHeadlineFuncOverlap(b *testing.B) {
	arms := experiments.FuncScaleArms()
	b.ReportAllocs()
	var serial, overlapped float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunFuncScaleArm(arms[0], 20e6, 100*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		o, err := experiments.RunFuncScaleArm(arms[2], 20e6, 100*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		serial, overlapped = s.IterMillis, o.IterMillis
	}
	b.ReportMetric(serial, "serial-ms/iter")
	b.ReportMetric(overlapped, "overlap-ms/iter")
	b.ReportMetric(serial/overlapped, "overlap-x")
}

// BenchmarkEngineIteration measures the simulator itself: one full
// 32-node HybComm VGG19 simulation per op.
func BenchmarkEngineIteration(b *testing.B) {
	m := nn.VGG19()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.Run(engine.Config{Model: m, Workers: 32, Strategy: engine.HybComm, Engine: "caffe"})
	}
}
