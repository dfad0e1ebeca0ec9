// Planner: the bridge between Algorithm 1 and the functional plane's
// synchronization runtime. The performance plane has always consulted
// this package's cost model through the Coordinator; the Planner gives
// the functional trainer the same single source of routing truth — it
// evaluates Algorithm 1 per parameter tensor (shape, batch size,
// cluster size) under a policy (hybrid, pure-PS, or the 1-bit
// baseline), honors explicit per-tensor overrides, and emits the
// comm.ParamPlan set the trainer hands to its Router. Neither plane
// carries a private copy of the decision rule anymore.
package poseidon

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
)

// Policy selects how the Planner maps tensors to schemes.
type Policy int

// Planner policies. They differ only in what Algorithm 1 is allowed to
// choose — the trainer's PS / Hybrid / 1-bit modes are these policies,
// not separate routing code paths.
const (
	// PolicyHybrid consults Algorithm 1 per tensor (HybComm).
	PolicyHybrid Policy = iota
	// PolicyPS routes every tensor through the parameter server.
	PolicyPS
	// PolicyOneBit routes SF-capable tensors through 1-bit quantized PS
	// pushes (the CNTK baseline) and everything else through the PS.
	PolicyOneBit
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyHybrid:
		return "hybrid"
	case PolicyPS:
		return "ps"
	case PolicyOneBit:
		return "1bit"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// TensorSpec describes one parameter tensor to plan: its gradient
// shape, whether that gradient admits a sufficient-factor
// decomposition, and its global parameter index.
type TensorSpec struct {
	// Index is the global parameter index (comm.ParamPlan.Index).
	Index int
	// Name labels the tensor for logs and metrics (e.g. "ip1.W").
	Name string
	// Rows, Cols give the gradient matrix shape (M×N in Table 1 terms;
	// orientation does not affect the cost model).
	Rows, Cols int
	// SFCapable marks rank-K decomposable gradients (FC weight
	// matrices). Only these may ride SFB or 1-bit quantization.
	SFCapable bool
}

// Elems returns Rows·Cols.
func (t TensorSpec) Elems() int { return t.Rows * t.Cols }

// LayerSpec derives the planner spec for a model-zoo layer descriptor,
// so zoo models can be planned without instantiating real tensors.
func LayerSpec(index int, l *nn.Layer) TensorSpec {
	m, n := l.GradMatrixShape()
	return TensorSpec{
		Index: index, Name: l.Name,
		Rows: int(m), Cols: int(n),
		SFCapable: l.SFCapable(),
	}
}

// Decision is one planned tensor with the cost-model numbers behind the
// choice (for logs, the -autoplan dump, and tests).
type Decision struct {
	Spec   TensorSpec
	Scheme Scheme
	// PSParams, SFBParams, and RingParams are Table 1's per-node
	// parameter counts for the candidate schemes (SFBParams is 0 for
	// tensors that cannot ride SFB).
	PSParams, SFBParams, RingParams int64
	// WireBytes is the per-worker egress per iteration under the chosen
	// scheme.
	WireBytes int64
	// Seconds is WireBytes over the planner's configured bandwidth
	// (0 when no bandwidth is set).
	Seconds float64
	// Err is non-nil when an explicit override demands a scheme this
	// tensor cannot ride (ParamPlans fails with the same error); the
	// cost fields are zeroed since no such wire traffic can exist.
	Err error
}

// Tuning defaults for the bandwidth-aware planner. Exported so the
// trainer and the Session facade apply the same values the tests pin.
const (
	// DefaultFrameOverheadSec is the modeled fixed cost per wire frame
	// when the planner is bandwidth-aware (serialization, syscall, and
	// protocol latency that does not scale with payload size).
	DefaultFrameOverheadSec = 1e-3
	// DefaultReplanAlpha is the EWMA weight of the newest bandwidth
	// observation in Replan.
	DefaultReplanAlpha = 0.5
	// DefaultReplanHysteresis is the fractional modeled-time advantage a
	// candidate scheme needs over the incumbent before Replan flips a
	// route — the damping that keeps routes from flapping when the
	// estimate wobbles inside a ±10% band.
	DefaultReplanHysteresis = 0.10
)

// Planner evaluates Algorithm 1 per tensor under a policy and cluster
// shape. The zero value is unusable; construct with NewPlanner.
type Planner struct {
	// Cluster is the shape the cost model evaluates against. Servers
	// defaults to Workers (colocated, as in the paper's runs).
	Cluster ClusterShape
	// Policy constrains what Algorithm 1 may choose.
	Policy Policy
	// Overrides pins parameter index → scheme, trumping the policy
	// (ablations, baselines, and the worker's -route flag).
	Overrides map[int]Scheme
	// BytesPerSec models the per-link bandwidth: Decisions carry
	// estimated seconds, and — together with FrameOverhead — it makes
	// the scheme choice depend on the *absolute* link speed. 0 leaves
	// costs as byte counts only, where the choice is
	// bandwidth-independent (both candidate costs scale by the same
	// link speed). Replan supersedes this initial estimate with the
	// measured EWMA.
	BytesPerSec float64
	// FrameOverhead is the modeled fixed time per wire frame in seconds.
	// When both it and the bandwidth estimate are positive, SchemeFor
	// compares modeled seconds (bytes/bandwidth + frames·overhead)
	// instead of raw bytes; 0 preserves the byte-count rule exactly.
	FrameOverhead float64
	// Alpha is the EWMA weight Replan gives the newest bandwidth
	// observation (0 selects DefaultReplanAlpha).
	Alpha float64
	// Hysteresis is the fractional modeled-time advantage required to
	// flip a route in Replan (0 selects DefaultReplanHysteresis).
	Hysteresis float64

	// bwEst is the EWMA over measured bandwidth observations; it
	// overrides BytesPerSec once the first observation is folded in.
	bwEst float64
	// specs and routes are the spec set bound by the last ParamPlans
	// call plus the live route of every spec — the state Replan
	// re-evaluates and applies hysteresis against.
	specs  []TensorSpec
	routes []Scheme
}

// NewPlanner builds a planner for the given policy and cluster shape
// (Servers defaults to Workers when unset — the colocated deployment).
func NewPlanner(policy Policy, c ClusterShape) *Planner {
	if c.Servers <= 0 {
		c.Servers = c.Workers
	}
	return &Planner{Cluster: c, Policy: policy}
}

// Override pins one parameter index to a scheme.
func (p *Planner) Override(index int, s Scheme) {
	if p.Overrides == nil {
		p.Overrides = make(map[int]Scheme)
	}
	p.Overrides[index] = s
}

// bandwidth returns the live link-speed estimate: the measured EWMA
// once Replan folded an observation in, the configured BytesPerSec
// before that.
func (p *Planner) bandwidth() float64 {
	if p.bwEst > 0 {
		return p.bwEst
	}
	return p.BytesPerSec
}

// BandwidthEstimate exposes the live link-speed estimate (bytes/second)
// for logs and the metrics snapshot's bw_estimate_bps field.
func (p *Planner) BandwidthEstimate() float64 { return p.bandwidth() }

// bandwidthAware reports whether the planner decides by modeled seconds
// (bytes/bandwidth + frames·overhead) rather than raw byte counts.
func (p *Planner) bandwidthAware() bool {
	return p.bandwidth() > 0 && p.FrameOverhead > 0
}

// schemeSeconds models the per-iteration wall time scheme s costs for
// tensor t under the current bandwidth estimate.
func (p *Planner) schemeSeconds(t TensorSpec, s Scheme) float64 {
	bytes := schemeBytesMN(int64(t.Rows), int64(t.Cols), t.SFCapable, s, p.Cluster)
	return float64(bytes)/p.bandwidth() + schemeFramesMN(s, p.Cluster)*p.FrameOverhead
}

// candidates returns the schemes Algorithm 1 may choose for one tensor
// under the hybrid policy, in tie-break order (earlier wins on equal
// modeled time, preserving the byte-rule's SFB-on-tie behavior). The
// ring collective is a candidate for every tensor — it needs no
// decomposable gradient — while TreeRing is override-only: the flat
// cost model would always prefer it at scale, but its advantage exists
// only on oversubscribed fabrics the model cannot see.
func (t TensorSpec) candidates() []Scheme {
	if t.SFCapable {
		return []Scheme{SFB, PS, Ring}
	}
	return []Scheme{PS, Ring}
}

// argminSeconds returns the candidate with the smallest modeled
// per-iteration time; earlier candidates win ties.
func (p *Planner) argminSeconds(t TensorSpec, candidates []Scheme) Scheme {
	best, bestSec := candidates[0], p.schemeSeconds(t, candidates[0])
	for _, s := range candidates[1:] {
		if sec := p.schemeSeconds(t, s); sec < bestSec {
			best, bestSec = s, sec
		}
	}
	return best
}

// SchemeFor returns the scheme for one tensor: explicit override first,
// then the policy (Algorithm 1 under PolicyHybrid). A single-worker
// cluster always uses the PS (nothing to collect). A bandwidth-aware
// hybrid planner compares modeled seconds across every candidate —
// PS/SFB/Ring for decomposable gradients, PS/Ring otherwise — so the
// choice tracks the link it actually has (or believes it has, until
// Replan corrects the estimate); without a bandwidth estimate the
// byte-count rule decides PS-vs-SFB exactly as before.
func (p *Planner) SchemeFor(t TensorSpec) Scheme {
	if s, ok := p.Overrides[t.Index]; ok {
		return s
	}
	if p.Cluster.Workers <= 1 {
		return PS
	}
	if !t.SFCapable {
		if p.Policy == PolicyHybrid && p.bandwidthAware() {
			return p.argminSeconds(t, t.candidates())
		}
		return PS
	}
	switch p.Policy {
	case PolicyPS:
		return PS
	case PolicyOneBit:
		return OneBitPS
	default:
		if p.bandwidthAware() {
			return p.argminSeconds(t, t.candidates())
		}
		return bestSchemeMN(int64(t.Rows), int64(t.Cols), true, p.Cluster)
	}
}

// checkScheme rejects scheme assignments the comm runtime cannot
// execute — the one legality rule shared by Decide and ParamPlans, so
// the preview and the executable plan always agree on override
// feasibility.
func checkScheme(t TensorSpec, s Scheme) error {
	// The ring collectives reduce dense updates, so — like the PS — they
	// are legal for every tensor; SFB and 1-bit need the factorization.
	if !t.SFCapable && s != PS && s != Ring && s != TreeRing {
		return fmt.Errorf("poseidon: param %d (%s): scheme %v needs a decomposable gradient", t.Index, t.Name, s)
	}
	if _, err := s.Route(); err != nil {
		return fmt.Errorf("poseidon: param %d (%s): %w", t.Index, t.Name, err)
	}
	return nil
}

// Decide evaluates one tensor and returns the decision with its cost
// accounting. An infeasible explicit override surfaces in Err rather
// than as fictional cost numbers.
func (p *Planner) Decide(t TensorSpec) Decision {
	d := Decision{Spec: t, Scheme: p.SchemeFor(t)}
	if d.Err = checkScheme(t, d.Scheme); d.Err != nil {
		return d
	}
	m, n := int64(t.Rows), int64(t.Cols)
	d.PSParams = PSColocatedParams(m, n, p.Cluster)
	if t.SFCapable && p.Cluster.Workers > 1 {
		d.SFBParams = SFBWorkerParams(m, n, p.Cluster)
	}
	if p.Cluster.Workers > 1 {
		d.RingParams = RingWorkerParams(m, n, p.Cluster)
	}
	d.WireBytes = schemeBytesMN(m, n, t.SFCapable, d.Scheme, p.Cluster)
	if bw := p.bandwidth(); bw > 0 {
		d.Seconds = float64(d.WireBytes) / bw
	}
	return d
}

// Plan evaluates every spec in order.
func (p *Planner) Plan(specs []TensorSpec) []Decision {
	out := make([]Decision, len(specs))
	for i, t := range specs {
		out[i] = p.Decide(t)
	}
	return out
}

// Route maps a scheme onto the comm runtime's wire strategy. AdamSF is
// a modeled baseline with no functional-plane implementation.
func (s Scheme) Route() (comm.Route, error) {
	switch s {
	case PS:
		return comm.RoutePS, nil
	case SFB:
		return comm.RouteSFB, nil
	case OneBitPS:
		return comm.RouteOneBit, nil
	case Ring:
		return comm.RouteRing, nil
	case TreeRing:
		return comm.RouteTreeRing, nil
	default:
		return 0, fmt.Errorf("poseidon: scheme %v has no comm route", s)
	}
}

// ParamPlans plans every spec and emits the comm runtime's ParamPlan
// set. SF extractors are the caller's to attach (they close over live
// layer state the planner never sees); a plan that selects SFB for a
// tensor the caller marked non-SF-capable cannot occur except through
// an override, which is rejected here.
func (p *Planner) ParamPlans(specs []TensorSpec) ([]comm.ParamPlan, error) {
	// An override naming a parameter that does not exist is a typo'd
	// ablation, not a no-op: silently ignoring it would let a run
	// masquerade as the experiment the user asked for.
	known := make(map[int]bool, len(specs))
	for _, t := range specs {
		known[t.Index] = true
	}
	for idx := range p.Overrides {
		if !known[idx] {
			return nil, fmt.Errorf("poseidon: route override for unknown param %d (model has %d params)", idx, len(specs))
		}
	}
	routes := make([]Scheme, len(specs))
	for i, t := range specs {
		routes[i] = p.SchemeFor(t)
	}
	plans, err := p.plansFromRoutes(specs, routes)
	if err != nil {
		return nil, err
	}
	// Bind the planned set: Replan re-evaluates exactly these specs and
	// applies hysteresis against these routes.
	p.specs = append(p.specs[:0], specs...)
	p.routes = routes
	return plans, nil
}

// plansFromRoutes assembles the executable plan set for an explicit
// scheme assignment, validating each against the comm runtime's
// legality rule.
func (p *Planner) plansFromRoutes(specs []TensorSpec, routes []Scheme) ([]comm.ParamPlan, error) {
	plans := make([]comm.ParamPlan, len(specs))
	for i, t := range specs {
		if err := checkScheme(t, routes[i]); err != nil {
			return nil, err
		}
		route, _ := routes[i].Route() // checkScheme proved it maps
		plans[i] = comm.ParamPlan{
			Index: t.Index, Name: t.Name,
			Rows: t.Rows, Cols: t.Cols,
			Route: route,
			// The per-node PS baseline for this cluster shape, so the
			// metrics subsystem can report measured SFB savings against
			// what routing everything through the KV store would cost.
			PSEquivBytes: 4 * PSColocatedParams(int64(t.Rows), int64(t.Cols), p.Cluster),
		}
	}
	return plans, nil
}

// ReplanShape rebinds the planner to a new cluster shape — a membership
// epoch transition — and re-decides every route in the bound spec set
// for it. Unlike Replan there is no hysteresis: the worker count
// actually changed, so the per-node cost of both candidate schemes
// changed discontinuously and the incumbent deserves no benefit of the
// doubt. Explicit overrides stay pinned, and the live bandwidth
// estimate (EWMA or configured) carries over. Returns the full plan set
// for the new shape, or nil when no specs are bound (the caller then
// keeps its current plans with only the shard sizes changing).
func (p *Planner) ReplanShape(c ClusterShape) ([]comm.ParamPlan, error) {
	if c.Servers <= 0 {
		c.Servers = c.Workers
	}
	p.Cluster = c
	if len(p.specs) == 0 {
		return nil, nil
	}
	for i, t := range p.specs {
		p.routes[i] = p.SchemeFor(t)
	}
	return p.plansFromRoutes(p.specs, p.routes)
}

// Adopt rebinds the planner to a committed epoch transition: the cluster
// shape the members now form and the route every bound spec actually
// rides — the leader's decision, which every member applied. A planner
// that only ever re-decided locally would drift from the incumbents the
// moment another member led a transition; after Adopt any member can
// lead the next one from the true state.
func (p *Planner) Adopt(c ClusterShape, routes []comm.Route) error {
	if len(routes) != len(p.routes) {
		return fmt.Errorf("poseidon: adopting %d routes for %d bound specs", len(routes), len(p.routes))
	}
	if c.Servers <= 0 {
		c.Servers = c.Workers
	}
	p.Cluster = c
	for i, route := range routes {
		s, err := schemeOf(route)
		if err != nil {
			return fmt.Errorf("poseidon: param %d: %w", p.specs[i].Index, err)
		}
		p.routes[i] = s
	}
	return nil
}

// schemeOf inverts Scheme.Route.
func schemeOf(route comm.Route) (Scheme, error) {
	for _, s := range []Scheme{PS, SFB, OneBitPS, Ring, TreeRing} {
		if r, _ := s.Route(); r == route {
			return s, nil
		}
	}
	return 0, fmt.Errorf("route %v has no scheme", route)
}

// BandwidthObservation is one measured wire-rate sample, taken by the
// trainer between epoch transitions (egress bytes over elapsed wall
// time).
type BandwidthObservation struct {
	// BytesPerSec is the measured effective egress rate. Non-positive
	// observations are discarded (an idle window says nothing about the
	// link).
	BytesPerSec float64
}

// Replan folds one measured bandwidth observation into the EWMA
// estimate and re-evaluates Algorithm 1 over the spec set bound by the
// last ParamPlans call. A route flips only when the candidate scheme's
// modeled time beats the incumbent's by more than the hysteresis
// margin, so estimates wobbling inside the band hold the plan steady.
// Explicit overrides stay pinned, and only PolicyHybrid re-decides —
// the pure-PS and 1-bit policies have nothing to adapt.
//
// It returns the full new plan set when at least one route flipped and
// nil when the plan holds (also when no specs are bound or the planner
// is not bandwidth-aware). Returned plans carry no SF extractors —
// those close over live layer state the planner never sees; the comm
// layer re-attaches them through its SFSource when it executes the
// swap.
func (p *Planner) Replan(obs BandwidthObservation) []comm.ParamPlan {
	if obs.BytesPerSec > 0 {
		alpha := p.Alpha
		if alpha <= 0 {
			alpha = DefaultReplanAlpha
		}
		if prev := p.bandwidth(); prev > 0 {
			p.bwEst = alpha*obs.BytesPerSec + (1-alpha)*prev
		} else {
			p.bwEst = obs.BytesPerSec
		}
	}
	if len(p.specs) == 0 || !p.bandwidthAware() || p.Policy != PolicyHybrid {
		return nil
	}
	hyst := p.Hysteresis
	if hyst <= 0 {
		hyst = DefaultReplanHysteresis
	}
	changed := false
	for i, t := range p.specs {
		if _, pinned := p.Overrides[t.Index]; pinned || p.Cluster.Workers <= 1 {
			continue
		}
		cur := p.routes[i]
		cands := t.candidates()
		incumbent := false
		for _, s := range cands {
			incumbent = incumbent || s == cur
		}
		if !incumbent {
			continue // baselines reached only via overrides; never re-decided
		}
		// The best challenger (minimum modeled time, candidate order
		// breaking ties) must beat the incumbent by the hysteresis margin.
		best, bestSec := cur, -1.0
		for _, alt := range cands {
			if alt == cur {
				continue
			}
			if sec := p.schemeSeconds(t, alt); bestSec < 0 || sec < bestSec {
				best, bestSec = alt, sec
			}
		}
		if bestSec >= 0 && bestSec < p.schemeSeconds(t, cur)*(1-hyst) {
			p.routes[i] = best
			changed = true
		}
	}
	if !changed {
		return nil
	}
	plans, err := p.plansFromRoutes(p.specs, p.routes)
	if err != nil {
		// Unreachable: flips only move tensors among their own candidate
		// set, every member of which is legal for them.
		panic(fmt.Sprintf("poseidon: Replan produced an illegal plan: %v", err))
	}
	return plans
}
