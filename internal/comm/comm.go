// Package comm is the synchronization runtime of the functional plane:
// it owns everything between "the backward pass produced gradients" and
// "every replica adopted the synchronized update". The paper's three
// wire strategies — parameter-server rounds over a sharded KV store,
// sufficient-factor broadcasting, and CNTK-style 1-bit quantization —
// are Syncer implementations selected per parameter by the cost-model
// rule (Algorithm 1), and a Router multiplexes the mesh between them.
//
// Large tensors are chunked across KV shards and pushed through a
// fixed-worker send pool (queue depth bounded by the consistency
// protocol itself), so chunk c+1 of a layer streams while chunk c is
// still on the wire. The trainer calls Router.Launch for a layer the
// moment its backward step ends, so those frames are encoded and sent
// while the layers below are still computing — wait-free backpropagation
// (paper §3.1) with real bytes rather than the simulated timeline of
// internal/engine.
//
// Adding a strategy (ring all-reduce, top-k sparsification, ...) means
// implementing Syncer and teaching routeFor to construct it; the
// trainer never changes.
package comm

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// Route names a wire strategy for one parameter.
type Route int

// Supported routes.
const (
	// RoutePS synchronizes through parameter-server rounds on the
	// sharded KV store (chunked when the tensor exceeds the chunk size).
	RoutePS Route = iota
	// RouteSFB broadcasts rank-K sufficient factors peer-to-peer and
	// reconstructs the dense gradient on receipt.
	RouteSFB
	// RouteOneBit pushes 1-bit quantized updates with residual feedback
	// and double-sided quantized broadcasts (the CNTK baseline).
	RouteOneBit
	// RouteRing runs the bandwidth-optimal ring all-reduce: the tensor is
	// split into P segments, each reduced along a fixed worker chain
	// (reduce-scatter) and redistributed along the same ring
	// (all-gather) — 2(P−1) frames per worker, perfectly balanced links.
	RouteRing
	// RouteTreeRing composes intra-group rings with an inter-group
	// leader exchange — the two-level hierarchy for oversubscribed
	// topologies where a flat ring would cross the slow fabric P times.
	RouteTreeRing
)

// String names the route.
func (r Route) String() string {
	switch r {
	case RoutePS:
		return "PS"
	case RouteSFB:
		return "SFB"
	case RouteOneBit:
		return "1bit"
	case RouteRing:
		return "ring"
	case RouteTreeRing:
		return "treering"
	default:
		return fmt.Sprintf("route(%d)", int(r))
	}
}

// ParamPlan describes how one parameter tensor is synchronized — the
// functional-plane analogue of the coordinator's LayerPlan. Plans are
// produced by poseidon.Planner (the single owner of the Algorithm 1
// decision rule); this package only executes them.
type ParamPlan struct {
	// Index is the global parameter index; Plans[i].Index must equal i.
	Index int
	// Name labels the tensor in logs and metrics (optional).
	Name string
	// Rows, Cols give the tensor shape (vectors are 1×n).
	Rows, Cols int
	// Route picks the wire strategy.
	Route Route
	// PSEquivBytes is the cost model's pure-PS per-node wire traffic
	// per iteration for this tensor (Table 1's colocated cost × 4
	// bytes) — the baseline the metrics subsystem charges SFB savings
	// against. Zero when no cost model produced the plan.
	PSEquivBytes int64
	// SF extracts the parameter's sufficient factor once its layer's
	// backward step has ended. Required for RouteSFB. Launch calls it,
	// folds the update scaling into U in place, and encodes and copies
	// the factor before it returns, so implementations may return views
	// of live pass buffers (autodiff's BorrowSufficientFactor): Launch
	// runs mid-backward, from the layer's completion callback, and the
	// rest of the pass must neither read U again nor write V. Nothing of
	// the factor is referenced after Launch returns.
	SF func() *tensor.SufficientFactor
}

// Syncer synchronizes one parameter tensor across the mesh. Launch runs
// on the compute goroutine; Handle runs on the router's receive
// goroutine. Implementations share the router's staged replica and
// consistency clock, and report completed iterations by advancing the
// clock.
type Syncer interface {
	// Launch ships this worker's contribution for iteration iter; it
	// may run while the backward pass is still working on lower layers.
	// update is the scaled dense update, borrowed from the router's
	// update ring: it stays valid until this parameter's clock advances
	// for iter (the router reuses the ring slot staleness+1 iterations
	// later), so in-flight encode tasks may read it but the syncer must
	// not retain it past round completion. Routes that derive their own
	// payload (SFB) receive nil.
	Launch(iter int, update *tensor.Matrix) error
	// Handle processes one inbound wire message addressed to this
	// parameter, in either the worker or the server role.
	Handle(msg transport.Message) error
	// Close releases the routing-owned state behind the syncer — KV
	// pairs on the local shard, factor aggregators in the bank — ahead
	// of a route handoff. The handoff contract: the router's scheduled
	// epoch transition has drained every in-flight round (no lease, scratch
	// buffer, or partial aggregation survives), the staged replica keeps
	// the authoritative parameter value, and the successor syncer
	// re-seeds whatever server-side state its route needs from it. A
	// closed syncer never sees another Launch or Handle.
	Close()
}

// chunkSpec is one KV pair of a chunked parameter: a contiguous slice
// of the flattened tensor owned by one shard.
type chunkSpec struct {
	key    string
	server int
	off, n int
}

// chunkKey names chunk c of parameter index on the KV store.
func chunkKey(index, c int) string { return fmt.Sprintf("p%d.%d", index, c) }

// splitChunks slices an elems-long tensor into chunks of at most
// chunkElems values (one chunk when chunkElems <= 0), assigning chunk c
// of parameter index to server (index+c) mod servers — the fine-grained
// round-robin placement that spreads one hot layer across every shard.
func splitChunks(index, elems, chunkElems, servers int) []chunkSpec {
	if chunkElems <= 0 || chunkElems >= elems {
		return []chunkSpec{{key: chunkKey(index, 0), server: index % servers, off: 0, n: elems}}
	}
	var specs []chunkSpec
	for c, off := 0, 0; off < elems; c, off = c+1, off+chunkElems {
		n := chunkElems
		if off+n > elems {
			n = elems - off
		}
		specs = append(specs, chunkSpec{
			key:    chunkKey(index, c),
			server: (index + c) % servers,
			off:    off,
			n:      n,
		})
	}
	return specs
}
