package train

import (
	"math"
	"testing"

	"repro/internal/metrics"
)

// A run seeded with a deliberately wrong bandwidth estimate must
// correct itself at the first replan barrier: the MLP's 32×16 FC weight
// starts on SFB (the byte term dominates at the claimed 100 KB/s), the
// in-process mesh then measures orders of magnitude more than that, and
// Algorithm 1 flips the tensor to the PS — while the training
// trajectory stays within 1e-6 of the identical run with replanning
// disabled (route changes re-associate float32 sums, nothing more) and
// the replicas keep agreeing (train.Run's internal BSP checks).
//
// The flip is also the dense-gradient mask's hard case: while the weight
// rode SFB its backward step skipped the dense GEMM, so GW is stale when
// the route changes under it. The first post-flip iteration must push a
// gradient computed in that iteration — a stale one moves the weight
// the wrong way and shows in the very next loss.
func TestReplanCorrectsWrongBandwidth(t *testing.T) {
	base := Config{
		Workers: 4, Iters: 16, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 13,
		BuildNet:  mlpBuilder(16, []int{32}, 4),
		TrainSet:  smallData(101, 256),
		Bandwidth: 100e3, // claims 100 KB/s; the in-process mesh is far faster
	}

	static := base
	static.Metrics = metrics.NewComm()
	staticRes, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	staticSnap := static.Metrics.Snapshot()
	if len(staticSnap.ReplanEvents) != 0 {
		t.Fatalf("static run logged replan events: %+v", staticSnap.ReplanEvents)
	}
	sfbAtStart := false
	for _, p := range staticSnap.Params {
		if p.Route == "SFB" {
			sfbAtStart = true
		}
	}
	if !sfbAtStart {
		t.Fatal("the claimed 100 KB/s should put the FC weight on SFB initially")
	}

	replanned := base
	replanned.Replan = ReplanSpec{Every: 8, Alpha: 1}
	replanned.Metrics = metrics.NewComm()
	replannedRes, err := Run(replanned)
	if err != nil {
		t.Fatal(err)
	}
	snap := replanned.Metrics.Snapshot()
	if len(snap.ReplanEvents) < 1 {
		t.Fatalf("no route flipped despite a 100 KB/s estimate on an in-process mesh\nestimate: %g B/s", snap.BWEstimateBPS)
	}
	for _, e := range snap.ReplanEvents {
		if e.From != "SFB" || e.To != "PS" {
			t.Fatalf("unexpected flip direction %+v (measured bandwidth should favor the PS)", e)
		}
		if e.Iter != 8 {
			t.Fatalf("flip at iteration %d, want the epoch barrier 8: %+v", e.Iter, e)
		}
		if e.Name != "fc0.W" && e.Name != "out.W" {
			t.Fatalf("flipped tensor %q is not an FC weight: %+v", e.Name, e)
		}
	}
	if snap.BWEstimateBPS <= base.Bandwidth {
		t.Fatalf("bw_estimate_bps %g did not rise above the wrong initial %g", snap.BWEstimateBPS, base.Bandwidth)
	}

	// Loss parity: replanning changes which wires carry the update, not
	// the update itself.
	if len(replannedRes.Curve) != len(staticRes.Curve) {
		t.Fatalf("curve lengths differ: %d vs %d", len(replannedRes.Curve), len(staticRes.Curve))
	}
	for i := range staticRes.Curve {
		d := math.Abs(replannedRes.Curve[i].TrainLoss - staticRes.Curve[i].TrainLoss)
		if d > 1e-6 {
			hint := ""
			if i == 9 {
				hint = ": iteration 8, the first on the dense route, pushed a stale gradient"
			}
			t.Fatalf("iter %d: replanned loss %.12g vs static %.12g (|d|=%g > 1e-6)%s",
				i, replannedRes.Curve[i].TrainLoss, staticRes.Curve[i].TrainLoss, d, hint)
		}
	}
	if d := maxParamDiff(replannedRes.Final, staticRes.Final); d > 1e-5 {
		t.Fatalf("final replicas differ from static plan by %g", d)
	}
}

// Replanning with SSP (staleness > 0) drains and swaps cleanly, and an
// epoch not exceeding the staleness bound is rejected up front.
func TestReplanWithStaleness(t *testing.T) {
	cfg := Config{
		Workers: 3, Iters: 12, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 33,
		Staleness: 1,
		BuildNet:  mlpBuilder(16, []int{32}, 4),
		TrainSet:  smallData(301, 120),
		Bandwidth: 100e3,
		Replan:    ReplanSpec{Every: 4, Alpha: 1},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Replan.Every = 1 // == staleness + 0: the arming could be outrun
	if _, err := Run(bad); err == nil {
		t.Fatal("replan interval <= staleness must be rejected")
	}
}

// A replan-enabled run with no Metrics configured still measures (the
// worker attaches a private registry) and still trains.
func TestReplanWithoutExplicitMetrics(t *testing.T) {
	cfg := Config{
		Workers: 3, Iters: 8, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 7,
		BuildNet:  mlpBuilder(16, []int{32}, 4),
		TrainSet:  smallData(102, 120),
		Bandwidth: 100e3,
		Replan:    ReplanSpec{Every: 4, Alpha: 1},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// Replanning must work without an initial Bandwidth claim: the first
// measured observation makes the planner bandwidth-aware (the default
// frame overhead applies because replanning is on), so the byte-rule
// initial SFB route still flips to PS once the in-process wire rate is
// measured.
func TestReplanWithoutInitialBandwidth(t *testing.T) {
	cfg := Config{
		Workers: 4, Iters: 16, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 13,
		BuildNet: mlpBuilder(16, []int{32}, 4),
		TrainSet: smallData(101, 256),
		Replan:   ReplanSpec{Every: 8, Alpha: 1},
	}
	cfg.Metrics = metrics.NewComm()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Metrics.Snapshot()
	if len(snap.ReplanEvents) < 1 {
		t.Fatalf("no route flipped without an initial bandwidth claim (estimate %g B/s)", snap.BWEstimateBPS)
	}
	for _, e := range snap.ReplanEvents {
		if e.From != "SFB" || e.To != "PS" {
			t.Fatalf("unexpected flip %+v", e)
		}
	}
}
