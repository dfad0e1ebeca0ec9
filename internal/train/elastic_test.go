package train

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// paramsIdentical asserts two replicas agree bit-for-bit — the
// membership protocol's consistency guarantee is byte-identity, not
// approximate agreement.
func paramsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	pa, pb := a.Final.Params(), b.Final.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d vs %d params", label, len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Data {
			if math.Float32bits(pa[i].Data[j]) != math.Float32bits(pb[i].Data[j]) {
				t.Fatalf("%s: param %d elem %d: %g vs %g", label, i, j, pa[i].Data[j], pb[i].Data[j])
			}
		}
	}
}

// TestElasticCrashContinuesAndMatchesReference kills one of three
// workers mid-training and checks the acceptance property end to end at
// the train layer: the survivors re-form at a membership barrier,
// finish byte-identical to each other, and match a two-worker reference
// run continued non-elastically from the snapshot the barrier adopted.
func TestElasticCrashContinuesAndMatchesReference(t *testing.T) {
	const n, iters, killAt = 3, 12, 4
	cl := transport.NewElasticChanCluster(n)
	base := Config{
		Workers: n, Iters: iters, Batch: 4, LR: 0.05, Mode: PSOnly, Seed: 21,
		Overlap: true, ChunkElems: 8,
		BuildNet:    mlpBuilder(16, []int{10}, 4),
		TrainSet:    smallData(300, 256),
		Elastic:     true,
		ViewTimeout: 20 * time.Second,
	}

	var mu sync.Mutex
	events := map[int][]ViewEvent{}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		cfg := base
		cfg.OnViewChange = func(ev ViewEvent) {
			mu.Lock()
			events[r] = append(events[r], ev)
			mu.Unlock()
		}
		if r == 2 {
			// Die right after launching iteration killAt: Progress fires
			// on the compute goroutine once the round's pushes are in
			// flight, so the survivors see a genuinely mid-stream crash.
			cfg.Progress = func(p Point) {
				if p.Iter == killAt {
					cl.Kill(2)
				}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunWorker(cfg, cl.Endpoint(r))
		}()
	}
	wg.Wait()
	cl.Close()

	if errs[2] == nil {
		t.Fatal("killed worker finished cleanly")
	}
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
		if got := len(events[r]); got != 1 {
			t.Fatalf("survivor %d saw %d view changes, want 1", r, got)
		}
	}
	ev0, ev1 := events[0][0], events[1][0]
	wantView := cluster.View{Epoch: 1, Members: []int{0, 1}}
	if !ev0.View.Equal(wantView) || !ev1.View.Equal(wantView) {
		t.Fatalf("committed views %v / %v, want %v", ev0.View, ev1.View, wantView)
	}
	if ev0.RestartIter != ev1.RestartIter {
		t.Fatalf("restart iterations diverge: %d vs %d", ev0.RestartIter, ev1.RestartIter)
	}
	for i := range ev0.Params {
		for j := range ev0.Params[i] {
			if math.Float32bits(ev0.Params[i][j]) != math.Float32bits(ev1.Params[i][j]) {
				t.Fatalf("adopted snapshots diverge at param %d elem %d", i, j)
			}
		}
	}
	paramsIdentical(t, "survivors", results[0], results[1])

	// Reference: a fixed-size two-worker run continued from the adopted
	// snapshot at the restart iteration must land on the same bytes —
	// the fenced-out rounds were skipped on both sides.
	ref := base
	ref.Workers = 2
	ref.Elastic = false
	ref.ViewTimeout = 0
	ref.StartIter = ev0.RestartIter
	ref.InitialParams = ev0.Params
	refRes, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	paramsIdentical(t, "survivor vs reference", results[0], refRes)
}

// TestElasticGracefulLeave has one worker depart voluntarily at a fixed
// iteration: it gets Left back, the survivors re-form and finish
// byte-identical. Batch 5 puts the 16×10 FC weight on Algorithm 1's
// crossover — K(M+N) ≤ 2MN/P holds at P=2 but not P=3 — so the shrink
// also flips it PS→SFB, and that flip must be logged as a replan event
// carrying the epoch of the view change that decided it.
func TestElasticGracefulLeave(t *testing.T) {
	const n, iters = 3, 10
	cl := transport.NewElasticChanCluster(n)
	base := Config{
		Workers: n, Iters: iters, Batch: 5, LR: 0.05, Mode: Hybrid, Seed: 33,
		Overlap:     true,
		BuildNet:    mlpBuilder(16, []int{10}, 4),
		TrainSet:    smallData(301, 256),
		Elastic:     true,
		ViewTimeout: 20 * time.Second,
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var mtrs []*metrics.Comm
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		cfg := base
		cfg.Metrics = metrics.NewComm()
		mtrs = append(mtrs, cfg.Metrics)
		if r == 2 {
			cfg.LeaveAt = 5
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunWorker(cfg, cl.Endpoint(r))
		}()
	}
	wg.Wait()
	cl.Close()
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("worker %d: %v", r, errs[r])
		}
	}
	if !results[2].Left {
		t.Fatal("leaver's result not marked Left")
	}
	if results[0].Left || results[1].Left {
		t.Fatal("survivor marked Left")
	}
	paramsIdentical(t, "survivors", results[0], results[1])
	for r := 0; r < 2; r++ {
		snap := mtrs[r].Snapshot()
		if len(snap.ViewChanges) != 1 || len(snap.ReplanEvents) != 1 {
			t.Fatalf("survivor %d logged view changes %+v and replan events %+v, want one of each",
				r, snap.ViewChanges, snap.ReplanEvents)
		}
		vc, e := snap.ViewChanges[0], snap.ReplanEvents[0]
		if e.From != "PS" || e.To != "SFB" || e.Epoch != vc.Epoch || e.Iter != vc.RestartIter {
			t.Fatalf("survivor %d: flip %+v does not join view change %+v as a PS→SFB shrink flip", r, e, vc)
		}
	}
}

// TestElasticJoinExpandsCluster starts two workers on a capacity-three
// mesh, attaches a third mid-training, and checks all three finish with
// byte-identical replicas.
func TestElasticJoinExpandsCluster(t *testing.T) {
	const capacity, iters = 3, 12
	cl := transport.NewElasticChanCluster(capacity)
	initial := cluster.View{Epoch: 0, Members: []int{0, 1}}
	base := Config{
		Workers: capacity, Iters: iters, Batch: 4, LR: 0.05, Mode: PSOnly, Seed: 44,
		Overlap: true, ChunkElems: 8,
		BuildNet:    mlpBuilder(16, []int{10}, 4),
		TrainSet:    smallData(302, 256),
		Elastic:     true,
		ViewTimeout: 20 * time.Second,
	}

	started := make(chan struct{})
	var once sync.Once
	results := make([]*Result, capacity)
	errs := make([]error, capacity)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		cfg := base
		cfg.View = initial.Clone()
		if r == 0 {
			// Admit the joiner only once training is demonstrably under
			// way, so the join lands mid-stream.
			cfg.Progress = func(p Point) {
				if p.Iter >= 3 {
					once.Do(func() { close(started) })
				}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunWorker(cfg, cl.Endpoint(r))
		}()
	}
	select {
	case <-started:
	case <-time.After(20 * time.Second):
		t.Fatal("initial members never made progress")
	}
	joiner := base
	joiner.View = initial.Clone()
	joiner.Joining = true
	mesh := cl.Join(2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[2], errs[2] = RunWorker(joiner, mesh)
	}()
	wg.Wait()
	cl.Close()

	for r := 0; r < capacity; r++ {
		if errs[r] != nil {
			t.Fatalf("worker %d: %v", r, errs[r])
		}
	}
	paramsIdentical(t, "member 0 vs 1", results[0], results[1])
	paramsIdentical(t, "member 0 vs joiner", results[0], results[2])
}

// TestElasticConfigValidation pins the config surface: the elastic
// fields are rejected in combinations the protocol cannot honor.
func TestElasticConfigValidation(t *testing.T) {
	base := Config{
		Workers: 2, Iters: 4, Batch: 2, LR: 0.1, Mode: PSOnly, Seed: 1,
		BuildNet: mlpBuilder(16, []int{4}, 4),
		TrainSet: smallData(9, 64),
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"joining without elastic", func(c *Config) { c.Joining = true }},
		{"view without elastic", func(c *Config) { c.View = cluster.Initial(2) }},
		{"leave without elastic", func(c *Config) { c.LeaveAt = 2 }},
		{"negative start", func(c *Config) { c.StartIter = -1 }},
		{"start past end", func(c *Config) { c.StartIter = 4 }},
		{"rank outside view", func(c *Config) { c.Elastic = true; c.View = cluster.View{Members: []int{1}} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestElasticKillDuringScheduledReplan is measured replanning and
// membership churn in one run — the combination the two-protocol design
// had to reject. A 3-worker elastic cluster replans every 4 iterations
// from a wrong 100 KB/s bandwidth claim; rank 2 stops launching after
// iteration 6 and is killed once both survivors have launched 7 and are
// draining toward the scheduled barrier at 8, so that transition
// escalates into a membership change. The survivors must finish
// byte-identical, agree on every flip, log the crash exactly once, and
// return every payload lease.
func TestElasticKillDuringScheduledReplan(t *testing.T) {
	baseline := transport.OutstandingPayloadLeases()
	const n, iters, every, victim = 3, 16, 4, 2
	cl := transport.NewElasticChanCluster(n)
	base := Config{
		Workers: n, Iters: iters, Batch: 2, LR: 0.05, Mode: Hybrid, Seed: 13,
		BuildNet:    mlpBuilder(16, []int{32}, 4),
		TrainSet:    smallData(101, 256),
		Bandwidth:   100e3, // the in-process mesh is orders of magnitude faster
		Replan:      ReplanSpec{Every: every, Alpha: 1},
		Elastic:     true,
		ViewTimeout: 20 * time.Second,
	}

	var draining sync.WaitGroup // survivors that launched the last round below the barrier
	draining.Add(n - 1)
	results := make([]*Result, n)
	errs := make([]error, n)
	mtrs := make([]*metrics.Comm, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		cfg := base
		cfg.Metrics = metrics.NewComm()
		mtrs[r] = cfg.Metrics
		cfg.Progress = func(p Point) {
			switch {
			case r != victim && p.Iter == 2*every-1:
				draining.Done()
			case r == victim && p.Iter == 2*every-2:
				// Round 7 can never complete without this rank, so the
				// survivors sit in ScheduleView(8)'s drain when it dies.
				draining.Wait()
				time.Sleep(20 * time.Millisecond)
				cl.Kill(victim)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunWorker(cfg, cl.Endpoint(r))
		}()
	}
	wg.Wait()
	cl.Close()

	if errs[victim] == nil {
		t.Fatal("killed worker finished cleanly")
	}
	for r := 0; r < n-1; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
	}
	paramsIdentical(t, "survivors", results[0], results[1])
	snap0 := mtrs[0].Snapshot()
	for r := 0; r < n-1; r++ {
		snap := mtrs[r].Snapshot()
		if len(snap.ReplanEvents) < 1 {
			t.Fatalf("survivor %d logged no route flip despite the wrong bandwidth claim", r)
		}
		if fmt.Sprint(snap.ReplanEvents) != fmt.Sprint(snap0.ReplanEvents) {
			t.Fatalf("survivors disagree on replan events:\n0: %+v\n%d: %+v", snap0.ReplanEvents, r, snap.ReplanEvents)
		}
		if len(snap.ViewChanges) != 1 {
			t.Fatalf("survivor %d logged %d membership changes, want 1: %+v", r, len(snap.ViewChanges), snap.ViewChanges)
		}
		vc := snap.ViewChanges[0]
		if len(vc.Dead) != 1 || vc.Dead[0] != victim || vc.RestartIter != 2*every {
			t.Fatalf("survivor %d membership change %+v, want rank %d dead at the escalated barrier %d", r, vc, victim, 2*every)
		}
	}

	// Frames queued for the killed rank when it died are stranded in its
	// inbox; re-attaching the slot reclaims them (see the comm-layer
	// mid-stream crash test).
	cl.Join(victim)
	deadline := time.Now().Add(5 * time.Second)
	for transport.OutstandingPayloadLeases() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("payload leases leaked across kill-during-replan: %d outstanding, baseline %d",
				transport.OutstandingPayloadLeases(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
