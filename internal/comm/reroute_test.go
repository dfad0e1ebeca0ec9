package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// scheduledBarrier runs the scheduled (same-membership) epoch transition
// at iter on one node — ScheduleView's drain, then the ordinary
// ViewPending → AwaitView path — and returns the number of routes the
// committed decision flipped on this node.
func scheduledBarrier(r *Router, iter int) (int, error) {
	before := r.Routes()
	if err := r.ScheduleView(iter); err != nil {
		return 0, err
	}
	if !r.ViewPending() {
		return 0, fmt.Errorf("ScheduleView(%d) left no transition pending", iter)
	}
	vc, err := r.AwaitView(iter)
	if err != nil {
		return 0, err
	}
	if vc.Moved || vc.Left || vc.RestartIter != iter {
		return 0, fmt.Errorf("scheduled transition at %d committed as %+v", iter, vc)
	}
	flips := 0
	for i, route := range r.Routes() {
		if route != before[i] {
			flips++
		}
	}
	return flips, nil
}

// leaderPlans is a Config.PlanShape for the scheduled-transition tests:
// the leader's compute goroutine stores the route parameter 1 should
// take before each barrier; any other node being consulted is a protocol
// bug (only the leader decides).
type leaderPlans struct {
	node int
	next Route // written and read on node 0's compute goroutine only
}

func (l *leaderPlans) planShape(workers int) ([]ParamPlan, error) {
	if l.node != 0 {
		return nil, fmt.Errorf("node %d consulted for a decision node 0 leads", l.node)
	}
	return []ParamPlan{
		{Index: 0, Rows: 4, Cols: 6, Route: RoutePS},
		{Index: 1, Rows: 2, Cols: 3, Route: l.next},
	}, nil
}

// rerouteCluster trains a 3-node cluster through two replan barriers —
// PS→SFB at iteration 2, back SFB→PS at iteration 4 — and checks the
// handoff invariants: the synchronized math is unaffected (every
// replica ends at initial + iters·Σ(node+1) exactly), every node lands
// on the same final routes, both flips are logged with the epoch that
// committed them, the same-membership MsgView ships no replica, and not
// a single payload lease outlives the run (the leak gauge:
// transport.OutstandingPayloadLeases returns to its baseline). Run
// under -race in CI, this also pins the receive-loop/barrier-swap
// synchronization.
func rerouteCluster(t *testing.T, overlap bool, chunkElems int) {
	t.Helper()
	baseline := transport.OutstandingPayloadLeases()

	const n = 3
	const iters = 6
	barriers := map[int]Route{2: RouteSFB, 4: RoutePS} // iteration → new route for param 1
	shapes := [][2]int{{4, 6}, {2, 3}}
	allParams := identicalParams(11, shapes)

	meshes := transport.NewChanCluster(n)
	routers := make([]*Router, n)
	mtrs := make([]*metrics.Comm, n)
	plans := make([]*leaderPlans, n)
	// A same-membership MsgView is view (8 + 4n) | restart 4 | nroutes 4
	// + one byte per param | nparams 4 — and nothing else: no replica.
	const bareView = 8 + 4*n + 4 + 4 + 2 + 4
	var views, fatViews atomic.Int32
	for node := 0; node < n; node++ {
		mtrs[node] = metrics.NewComm()
		plans[node] = &leaderPlans{node: node}
		r, err := NewRouter(Config{
			Mesh: transport.NewObservedMesh(meshes[node], func(msg transport.Message, _ int) {
				if msg.Type == transport.MsgView {
					views.Add(1)
					if len(msg.Payload) != bareView {
						fatViews.Add(1)
					}
				}
			}, nil),
			Plans: []ParamPlan{
				{Index: 0, Rows: 4, Cols: 6, Route: RoutePS},
				{Index: 1, Rows: 2, Cols: 3, Route: RoutePS},
			},
			Params:     allParams[node],
			Scale:      1,
			Overlap:    overlap,
			ChunkElems: chunkElems,
			Metrics:    mtrs[node],
			PlanShape:  plans[node].planShape,
			SFSource: func(node int) func(index int) func() *tensor.SufficientFactor {
				return func(index int) func() *tensor.SufficientFactor {
					if index != 1 {
						return nil
					}
					return func() *tensor.SufficientFactor {
						// Rank-1 factor reconstructing to a 2×3 gradient
						// with every element node+1 (UᵀV, U 1×2, V 1×3).
						u := tensor.NewMatrix(1, 2)
						u.Fill(float32(node + 1))
						v := tensor.NewMatrix(1, 3)
						v.Fill(1)
						return &tensor.SufficientFactor{U: u, V: v}
					}
				}
			}(node),
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	flipCounts := make([][]int, n)
	for node := 0; node < n; node++ {
		node, r := node, routers[node]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				if to, ok := barriers[iter]; ok {
					plans[node].next = to
					flips, err := scheduledBarrier(r, iter)
					if err != nil {
						errs[node] = err
						return
					}
					flipCounts[node] = append(flipCounts[node], flips)
				}
				r.WaitFor(iter)
				grads := []*tensor.Matrix{tensor.NewMatrix(4, 6), tensor.NewMatrix(2, 3)}
				for _, g := range grads {
					g.Fill(float32(node + 1))
				}
				if err := r.LaunchAll(iter, grads); err != nil {
					errs[node] = err
					return
				}
			}
			r.WaitFor(iters) // drain the final round
		}()
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}

	want := float32(iters * (1 + 2 + 3))
	for node, r := range routers {
		params := []*tensor.Matrix{tensor.NewMatrix(4, 6), tensor.NewMatrix(2, 3)}
		r.Adopt(params)
		for pi, p := range params {
			for j, v := range p.Data {
				if exp := allParams[0][pi].Data[j] + want; absDiff(v, exp) > 1e-4 {
					t.Fatalf("node %d param %d[%d]: %g, want %g (reroute broke the sum)",
						node, pi, j, v, exp)
				}
			}
		}
		if got := r.Routes(); got[0] != RoutePS || got[1] != RoutePS {
			t.Fatalf("node %d final routes %v, want [PS PS] after the round trip", node, got)
		}
		if len(flipCounts[node]) != 2 || flipCounts[node][0] != 1 || flipCounts[node][1] != 1 {
			t.Fatalf("node %d flip counts %v, want [1 1]", node, flipCounts[node])
		}
		snap := mtrs[node].Snapshot()
		if len(snap.ReplanEvents) != 2 {
			t.Fatalf("node %d logged %d replan events, want 2: %+v", node, len(snap.ReplanEvents), snap.ReplanEvents)
		}
		e0, e1 := snap.ReplanEvents[0], snap.ReplanEvents[1]
		if e0.Iter != 2 || e0.Epoch != 1 || e0.Param != 1 || e0.From != "PS" || e0.To != "SFB" {
			t.Fatalf("node %d first replan event %+v", node, e0)
		}
		if e1.Iter != 4 || e1.Epoch != 2 || e1.Param != 1 || e1.From != "SFB" || e1.To != "PS" {
			t.Fatalf("node %d second replan event %+v", node, e1)
		}
		if len(snap.ViewChanges) != 0 || snap.MembershipEpoch != 0 {
			t.Fatalf("node %d logged membership changes for same-membership replans: %+v", node, snap.ViewChanges)
		}
		if want := (cluster.View{Epoch: 2, Members: []int{0, 1, 2}}); !r.View().Equal(want) {
			t.Fatalf("node %d view %v after two transitions, want %v", node, r.View(), want)
		}
		if r.Err() != nil {
			t.Fatalf("node %d: %v", node, r.Err())
		}
	}
	// The leader sent one MsgView per peer per barrier, none carrying a
	// replica: a 3-node replan must not start shipping the whole model.
	if got := views.Load(); got != 2*(n-1) {
		t.Fatalf("%d MsgView frames on the wire, want %d", got, 2*(n-1))
	}
	if fat := fatViews.Load(); fat != 0 {
		t.Fatalf("%d same-membership MsgView frames were not the bare %d bytes (replica shipped)", fat, bareView)
	}

	meshes[0].Close()
	for _, r := range routers {
		r.Stop()
	}
	// Every pooled payload that crossed the reroute — parked frames
	// included — must have been released.
	deadline := time.Now().Add(5 * time.Second)
	for transport.OutstandingPayloadLeases() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("payload leases leaked across reroute: %d outstanding, baseline %d",
				transport.OutstandingPayloadLeases(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRouterRerouteMidTraining(t *testing.T) {
	for _, tc := range []struct {
		name       string
		overlap    bool
		chunkElems int
	}{
		{"serialized", false, 0},
		{"overlap", true, 0},
		{"overlap-chunked", true, 5},
	} {
		t.Run(tc.name, func(t *testing.T) { rerouteCluster(t, tc.overlap, tc.chunkElems) })
	}
}

// A no-change barrier still releases every worker: with no PlanShape
// the leader keeps the routes, nothing flips, and training continues.
func TestRouterRerouteNoChange(t *testing.T) {
	const n = 2
	shapes := [][2]int{{2, 2}}
	allParams := identicalParams(5, shapes)
	meshes := transport.NewChanCluster(n)
	routers := make([]*Router, n)
	for node := 0; node < n; node++ {
		r, err := NewRouter(Config{
			Mesh:   meshes[node],
			Plans:  []ParamPlan{{Index: 0, Rows: 2, Cols: 2, Route: RoutePS}},
			Params: allParams[node],
			Scale:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}
	t.Cleanup(func() {
		meshes[0].Close()
		for _, r := range routers {
			r.Stop()
		}
	})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for node := 0; node < n; node++ {
		node, r := node, routers[node]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 2; iter++ {
				if iter == 1 {
					flips, err := scheduledBarrier(r, 1)
					if err != nil {
						errs[node] = err
						return
					}
					if flips != 0 {
						errs[node] = errUnexpectedFlips
						return
					}
				}
				r.WaitFor(iter)
				g := tensor.NewMatrix(2, 2)
				g.Fill(1)
				if err := r.LaunchAll(iter, []*tensor.Matrix{g}); err != nil {
					errs[node] = err
					return
				}
			}
			r.WaitFor(2)
		}()
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
}

var errUnexpectedFlips = errFlips{}

type errFlips struct{}

func (errFlips) Error() string { return "no-change barrier reported flips" }

// A worker parked at a scheduled transition must observe a router
// failure — the MsgView it is waiting for will never arrive once a peer
// is gone, and hanging there would wedge the cluster teardown.
func TestRouterScheduledViewUnblocksOnFailure(t *testing.T) {
	const n = 2
	meshes := transport.NewChanCluster(n)
	routers := make([]*Router, n)
	for node := 0; node < n; node++ {
		r, err := NewRouter(Config{
			Mesh:   meshes[node],
			Plans:  []ParamPlan{{Index: 0, Rows: 2, Cols: 2, Route: RoutePS}},
			Params: []*tensor.Matrix{tensor.NewMatrix(2, 2)},
			Scale:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		routers[node] = r
		r.Start()
	}
	t.Cleanup(func() {
		meshes[0].Close()
		for _, r := range routers {
			r.Stop()
		}
	})
	// Node 1 opens the transition and waits for a decision that will
	// never come (node 0, the leader, never halts).
	done := make(chan error, 1)
	go func() {
		_, err := scheduledBarrier(routers[1], 0)
		done <- err
	}()
	// Poison node 1's receive loop with a malformed frame.
	if err := meshes[0].Send(1, transport.Message{Type: transport.MsgPush, Layer: 99}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("AwaitView returned nil after the router failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AwaitView still parked 10s after the router failed")
	}
}
