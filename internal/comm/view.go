package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sfb"
	"repro/internal/transport"
)

// Epoch transitions are the router's one round-barrier protocol: every
// change to HOW parameters route (a measured-bandwidth replan) or WHO is
// training (crash, join, leave) is a view change — a replan is simply one
// whose member set did not move. The protocol, end to end:
//
//  1. Trigger. Unscheduled: the transport injects MsgPeerGone (a peer
//     crashed) or MsgPeerUp (a joiner attached), a peer's undrained
//     MsgViewHalt arrives, or the local node calls Leave. The receive
//     loop opens an unscheduled transition — every subsequent data frame
//     parks (leases retained) — and interrupts the consistency clock so
//     the compute loop unblocks. Scheduled: the compute goroutine calls
//     ScheduleView(b) at an agreed iteration b; it first drains every
//     round below b, then opens a transition fenced at b. A peer's
//     drained halt that arrives before this node reaches b is recorded
//     under the same fence without disturbing the clock, so the rounds
//     still draining below b keep flowing. A lifecycle event during a
//     scheduled transition drops the fence below every iteration: it
//     escalates into an unscheduled one (halts already sent stay valid — "launched
//     everything below b" is still true).
//
//  2. Halt. Each live member of the old view reaches AwaitView with the
//     iteration it would have launched next and broadcasts that halt
//     iteration — plus everything it has observed (dead set, join set,
//     its own leave intent, and whether it drained to that iteration) —
//     to every live old member, then waits. Halts go to everyone so any
//     surviving rank can lead.
//
//  3. Decide. The leader (minimum live rank of the old view) collects
//     a halt from every live old member, computes the successor view
//     (old − dead − leavers + joiners, epoch + 1 — the epoch is the
//     sequence number that dedups halts and views, so it advances even
//     when the members did not move) and the restart iteration (max of
//     the halt iterations — no member launched past it, so every
//     old-epoch frame is stamped below it), consults the route planner,
//     and broadcasts MsgView carrying the view, the restart iteration,
//     the route vector, and its staged replica — the bytes every
//     survivor and joiner adopts. The replica is omitted when no rank
//     died, joined or left and every halt is a drained halt at the same
//     iteration: every staged replica is then already byte-identical.
//
//  4. Apply. On MsgView each member drains the send pool, adopts the
//     leader's parameters if present, and swaps syncers: all of them,
//     with a fresh shard and bank and a rescaled update, when the
//     member set moved; only those whose route changed otherwise. It
//     resets the clock to the restart iteration and replays parked
//     frames — dropping those fenced below the restart iteration (their
//     rounds are recomputed) and those from ranks outside the new view.
//     A member absent from the view (a leaver, by request) returns Left
//     instead of rebuilding.
//
// The fence needs no per-peer bookkeeping: a member only emits data
// frames for iterations it launched, all below its own halt, so every
// old-epoch frame satisfies Iter < restartIter; and a peer can only
// emit new-epoch frames (Iter >= restartIter) after applying MsgView,
// which the leader sends only after collecting this node's halt — by
// then this node is parked at or below the restart iteration, so the
// frame is held and replayed, never misdispatched.

// ViewChange reports one committed epoch transition to the caller.
type ViewChange struct {
	// View is the successor view.
	View cluster.View
	// RestartIter is the iteration training resumes at; the clock is
	// reset so WaitFor(RestartIter) passes immediately.
	RestartIter int
	// Moved is true when the member set changed (not just the epoch and
	// possibly the routes): dense ids, shard ownership and the update
	// scale were rebound.
	Moved bool
	// Left is true when this node was excluded from the successor view
	// (it asked to Leave): the router did not rebuild, and the caller
	// should wind down gracefully.
	Left bool
}

// unscheduled is the fence of a transition that anything but
// ScheduleView's agreed barrier opened or joined: it sits below every
// iteration, so every data frame parks.
const unscheduled = -1

// transition accumulates one in-progress epoch transition.
type transition struct {
	// fence is the lowest iteration whose data frames park while the
	// transition is pending: the barrier iteration of a scheduled
	// transition, unscheduled otherwise.
	fence int
	// due is set once the local compute goroutine arrived at a scheduled
	// transition (ScheduleView); until then a transition opened by early
	// peer halts stays invisible to ViewPending.
	due bool

	dead      map[int]bool // ranks whose links failed (union of local + halted observations)
	joined    map[int]bool // ranks attached but not yet members
	leavers   map[int]bool // ranks that announced voluntary departure
	halts     map[int]int  // live old member rank → halt iteration
	undrained bool         // some halt was not a drained halt
	leave     bool         // this node wants out

	haltSent bool // this node broadcast its halt
	composed bool // this node (as leader) broadcast MsgView
	view     *viewPayload
	held     []transport.Message
	expired  bool
	timer    *time.Timer
}

func newTransition(fence int) *transition {
	return &transition{
		fence:   fence,
		dead:    make(map[int]bool),
		joined:  make(map[int]bool),
		leavers: make(map[int]bool),
		halts:   make(map[int]int),
	}
}

// viewPayload is the decoded MsgView frame. params is nil when the
// leader omitted the replica.
type viewPayload struct {
	view    cluster.View
	restart int
	routes  []byte
	params  [][]float32
}

func sortedRanks(set map[int]bool) []int {
	ranks := make([]int, 0, len(set))
	for r := range set {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// viewMesh presents the current view to the syncers as a dense 0..P−1
// mesh: sends translate dense indices to transport ranks under the live
// view, so syncer logic is untouched by membership changes. Reads take
// viewMu because pool workers execute queued sends concurrently with
// everything except the barrier itself (which drains the pool before
// swapping the view).
type viewMesh struct{ r *Router }

func (v *viewMesh) Self() int {
	v.r.viewMu.RLock()
	defer v.r.viewMu.RUnlock()
	return v.r.id
}

func (v *viewMesh) N() int {
	v.r.viewMu.RLock()
	defer v.r.viewMu.RUnlock()
	return v.r.n
}

func (v *viewMesh) rankOf(dense int) (int, error) {
	v.r.viewMu.RLock()
	defer v.r.viewMu.RUnlock()
	if dense < 0 || dense >= len(v.r.view.Members) {
		return 0, fmt.Errorf("comm: send to dense id %d outside %v", dense, v.r.view)
	}
	return v.r.view.Members[dense], nil
}

func (v *viewMesh) Send(to int, msg transport.Message) error {
	rank, err := v.rankOf(to)
	if err != nil {
		return err
	}
	return v.r.raw.Send(rank, msg)
}

func (v *viewMesh) SendBatch(to int, msgs []transport.Message) error {
	rank, err := v.rankOf(to)
	if err != nil {
		return err
	}
	return v.r.raw.SendBatch(rank, msgs)
}

func (v *viewMesh) Recv() (transport.Message, error) { return v.r.raw.Recv() }
func (v *viewMesh) Detach(peer int) error            { return v.r.raw.Detach(peer) }
func (v *viewMesh) Close() error                     { return v.r.raw.Close() }

// attachWaiter is the optional transport capability the barrier uses to
// make sure a joiner's link is up before new-epoch traffic targets it.
type attachWaiter interface {
	WaitAttached(rank int, timeout time.Duration) error
}

// View returns the live membership view (a copy).
func (r *Router) View() cluster.View {
	r.viewMu.RLock()
	defer r.viewMu.RUnlock()
	return r.view.Clone()
}

// ViewPending reports whether an epoch transition needs the compute
// goroutine — its cue to call AwaitView.
func (r *Router) ViewPending() bool {
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	return r.pending != nil && (r.pending.fence == unscheduled || r.pending.due)
}

// ScheduleView opens a scheduled epoch transition at iteration at — the
// replan barrier every member reaches at the same iteration. Call from
// the compute goroutine once every iteration below at is launched: it
// drains those rounds (no lease, decode scratch, or partial round of the
// outgoing plan stays live, and every staged replica agrees), then opens
// the transition so ViewPending reports it and AwaitView(at) runs it.
// Works on fixed-size routers too. A lifecycle event cutting the drain
// short leaves an ordinary unscheduled transition behind; the caller
// proceeds to AwaitView either way.
func (r *Router) ScheduleView(at int) error {
	r.clock.WaitFor(at + r.staleness)
	if err := r.Err(); err != nil {
		return err
	}
	r.routeMu.Lock()
	r.openLocked(at).due = true
	r.routeMu.Unlock()
	return nil
}

// Leave announces this node's voluntary departure: it opens an
// unscheduled transition (peers learn of the intent from this node's
// halt broadcast) and interrupts the clock. The caller then runs
// AwaitView like any other member and receives Left=true once the
// successor view excludes it.
func (r *Router) Leave() error {
	if !r.elastic {
		return fmt.Errorf("comm: Leave on a fixed-size router")
	}
	r.routeMu.Lock()
	r.openLocked(unscheduled).leave = true
	r.routeCond.Broadcast()
	r.routeMu.Unlock()
	return nil
}

// openLocked returns the pending transition, opening one fenced at
// fence if none is pending and lowering an open one's fence to it
// otherwise. An unscheduled trigger also interrupts the clock, so a compute loop draining toward a scheduled
// barrier joins the escalated transition instead. Caller holds routeMu.
func (r *Router) openLocked(fence int) *transition {
	p := r.pending
	if p == nil {
		p = newTransition(fence)
		r.pending = p
		r.armViewTimerLocked(p)
	} else if fence < p.fence {
		p.fence = fence
	}
	if fence == unscheduled {
		r.clock.Interrupt()
	}
	return p
}

func (r *Router) armViewTimerLocked(p *transition) {
	if p.timer != nil {
		return
	}
	p.timer = time.AfterFunc(r.viewTimeout, func() {
		r.routeMu.Lock()
		if r.pending == p {
			p.expired = true
			r.routeCond.Broadcast()
		}
		r.routeMu.Unlock()
	})
}

// noteLifecycle folds one synthetic transport event into the pending
// transition. Runs on the receive goroutine.
func (r *Router) noteLifecycle(msg transport.Message) {
	rank := int(msg.From)
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	switch msg.Type {
	case transport.MsgPeerGone:
		if !r.view.Contains(rank) {
			return // already excluded (stale event for a removed rank)
		}
		r.openLocked(unscheduled).dead[rank] = true
	case transport.MsgPeerUp:
		if r.view.Contains(rank) {
			return // re-attachment of a current member is not a join
		}
		r.openLocked(unscheduled).joined[rank] = true
	}
	r.routeCond.Broadcast()
}

// ---- MsgViewHalt -----------------------------------------------------------

// Halt flag bits.
const (
	haltLeave   = 1 << iota // the sender wants out of the successor view
	haltDrained             // every round below Iter is synchronized at the sender
)

// haltPayload is the decoded MsgViewHalt body.
type haltPayload struct {
	epoch   int // the epoch being left
	leave   bool
	drained bool
	dead    []int
	joined  []int
}

// appendHaltPayload encodes a halt announcement:
// u32 epoch | u8 flags | u32 ndead | ranks | u32 njoin | ranks.
func appendHaltPayload(buf []byte, h haltPayload) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.epoch))
	var flags byte
	if h.leave {
		flags |= haltLeave
	}
	if h.drained {
		flags |= haltDrained
	}
	buf = append(buf, flags)
	for _, ranks := range [][]int{h.dead, h.joined} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ranks)))
		for _, rank := range ranks {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(rank))
		}
	}
	return buf
}

// decodeHaltPayload accepts exactly what appendHaltPayload emits:
// unknown flag bits and trailing bytes are rejected, and the rank lists
// grow only as fast as the input that backs them.
func decodeHaltPayload(buf []byte) (haltPayload, error) {
	var h haltPayload
	short := fmt.Errorf("comm: short halt payload")
	if len(buf) < 5 {
		return h, short
	}
	h.epoch = int(binary.LittleEndian.Uint32(buf))
	flags := buf[4]
	if flags&^(haltLeave|haltDrained) != 0 {
		return h, fmt.Errorf("comm: halt payload with unknown flags %#x", flags)
	}
	h.leave = flags&haltLeave != 0
	h.drained = flags&haltDrained != 0
	buf = buf[5:]
	for _, dst := range []*[]int{&h.dead, &h.joined} {
		if len(buf) < 4 {
			return h, short
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if n > len(buf)/4 {
			return h, short
		}
		for i := 0; i < n; i++ {
			*dst = append(*dst, int(binary.LittleEndian.Uint32(buf[4*i:])))
		}
		buf = buf[4*n:]
	}
	if len(buf) != 0 {
		return h, fmt.Errorf("comm: %d trailing bytes after halt payload", len(buf))
	}
	return h, nil
}

// broadcastControl sends one control frame carrying ref's bytes to every
// rank in to, consuming ref. Sends go over the raw mesh in rank space;
// elastic transports drop sends to already-dead ranks silently, so a
// racing crash cannot fail the broadcast.
func (r *Router) broadcastControl(t transport.MsgType, iter int, ref *transport.PayloadRef, to []int) error {
	msg := transport.Message{Type: t, Layer: -1, Iter: int32(iter), Payload: ref.Bytes()}
	msg.AttachLease(ref)
	var firstErr error
	for _, rank := range to {
		ref.Retain()
		cp := msg
		err := r.raw.Send(rank, cp)
		cp.ReleasePayload()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ref.Release()
	return firstErr
}

// broadcastHalt announces this node's halt iteration and observations
// to every live member of the old view.
func (r *Router) broadcastHalt(old cluster.View, nextIter int, h haltPayload) error {
	ref := transport.LeasePayload(13 + 4*(len(h.dead)+len(h.joined)))
	ref.SetBytes(appendHaltPayload(ref.Bytes(), h))
	var to []int
	for _, m := range old.Members {
		if m != r.rank && !slices.Contains(h.dead, m) {
			to = append(to, m)
		}
	}
	return r.broadcastControl(transport.MsgViewHalt, nextIter, ref, to)
}

// foldHaltLocked folds a peer's halt frame into the pending transition,
// consuming its lease. Halts for a future epoch (the sender already
// applied a view this node hasn't) are deferred and refolded after the
// local apply, so cascaded transitions are not lost. A drained halt
// opens (or joins) a scheduled transition fenced at its iteration
// without touching the clock — this node may still be draining toward
// that barrier; an undrained one escalates. Caller holds routeMu.
func (r *Router) foldHaltLocked(msg transport.Message) error {
	h, err := decodeHaltPayload(msg.Payload)
	if err != nil {
		msg.ReleasePayload()
		return err
	}
	if h.epoch > r.view.Epoch {
		r.deferred = append(r.deferred, msg) // lease retained until refold
		return nil
	}
	defer msg.ReleasePayload()
	from := int(msg.From)
	if h.epoch < r.view.Epoch || !r.view.Contains(from) {
		return nil // stale: that transition already committed here
	}
	fence := unscheduled
	if h.drained {
		if fence = int(msg.Iter); fence < 0 {
			return fmt.Errorf("comm: VIEWHALT from peer %d drained to iteration %d", from, fence)
		}
	} else if !r.elastic {
		return fmt.Errorf("comm: undrained VIEWHALT from peer %d on a fixed-size router", from)
	}
	p := r.openLocked(fence)
	p.halts[from] = int(msg.Iter)
	p.undrained = p.undrained || !h.drained
	if h.leave {
		p.leavers[from] = true
	}
	for _, d := range h.dead {
		if r.view.Contains(d) {
			p.dead[d] = true
		}
	}
	for _, j := range h.joined {
		if !r.view.Contains(j) {
			p.joined[j] = true
		}
	}
	r.routeCond.Broadcast()
	return nil
}

// ---- MsgView ---------------------------------------------------------------

// composeViewLocked builds the successor view and its MsgView payload
// from the collected halts. Caller holds routeMu; the staged replica is
// frozen (receive loop parked, compute loop is here).
func (r *Router) composeViewLocked(p *transition) (*viewPayload, []int, error) {
	removed := sortedRanks(p.dead)
	for l := range p.leavers {
		if !slices.Contains(removed, l) {
			removed = append(removed, l)
		}
	}
	if p.leave && !slices.Contains(removed, r.rank) {
		removed = append(removed, r.rank)
	}
	sort.Ints(removed)
	next := r.view.Next(removed, sortedRanks(p.joined))
	if next.Size() == 0 {
		return nil, nil, fmt.Errorf("comm: membership change leaves an empty view")
	}
	own := p.halts[r.rank] // the leader is a live old member: it halted
	restart, sameIter := own, true
	for _, h := range p.halts {
		sameIter = sameIter && h == own
		restart = max(restart, h)
	}
	routes := make([]byte, len(r.plans))
	for i, plan := range r.plans {
		routes[i] = byte(plan.Route)
	}
	if r.planShape != nil {
		plans, err := r.planShape(next.Size())
		if err != nil {
			return nil, nil, fmt.Errorf("comm: replanning for %v: %w", next, err)
		}
		if plans != nil {
			if len(plans) != len(r.plans) {
				return nil, nil, fmt.Errorf("comm: replan produced %d plans for %d params", len(plans), len(r.plans))
			}
			for i, plan := range plans {
				routes[i] = byte(plan.Route)
			}
		}
	}
	pv := &viewPayload{view: next, restart: restart, routes: routes}
	// When every member drained to the same iteration and none died,
	// joined or left, each staged replica already holds exactly the
	// rounds below it, folded in the same order — shipping the leader's
	// copy would only move the whole model for nothing.
	if len(removed)+len(p.joined) > 0 || p.undrained || !sameIter {
		r.stageMu.Lock()
		for _, m := range r.staged {
			pv.params = append(pv.params, append([]float32(nil), m.Data...))
		}
		r.stageMu.Unlock()
	}

	// Recipients: every live old member (leavers included — MsgView is
	// how they learn they are out) plus every joiner; not self.
	var to []int
	for _, m := range r.view.Members {
		if m != r.rank && !p.dead[m] {
			to = append(to, m)
		}
	}
	for j := range p.joined {
		if !slices.Contains(to, j) {
			to = append(to, j)
		}
	}
	sort.Ints(to)
	return pv, to, nil
}

// appendViewPayload encodes: view wire (epoch|count|members) |
// u32 restartIter | u32 nroutes | route bytes | u32 nparams |
// per param (index order): u32 nvals | float32 LE values. nparams is 0
// when the replica is omitted.
func appendViewPayload(buf []byte, pv *viewPayload) []byte {
	buf = pv.view.AppendWire(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pv.restart))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pv.routes)))
	buf = append(buf, pv.routes...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pv.params)))
	for _, vals := range pv.params {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals)))
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return buf
}

// decodeViewPayload accepts exactly what appendViewPayload emits
// (trailing bytes are rejected), allocating no more than the input
// backs: every count is checked against the bytes left before anything
// is sized by it.
func decodeViewPayload(buf []byte) (*viewPayload, error) {
	view, rest, err := cluster.DecodeWire(buf)
	if err != nil {
		return nil, err
	}
	buf = rest
	short := fmt.Errorf("comm: short VIEW payload")
	readU32 := func() (int, bool) {
		if len(buf) < 4 {
			return 0, false
		}
		v := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		return v, true
	}
	pv := &viewPayload{view: view}
	var ok bool
	if pv.restart, ok = readU32(); !ok {
		return nil, short
	}
	nroutes, ok := readU32()
	if !ok || len(buf) < nroutes {
		return nil, short
	}
	pv.routes = append([]byte(nil), buf[:nroutes]...)
	buf = buf[nroutes:]
	nparams, ok := readU32()
	if !ok || nparams > len(buf)/4 {
		return nil, short
	}
	for i := 0; i < nparams; i++ {
		nvals, ok := readU32()
		if !ok || nvals > len(buf)/4 {
			return nil, fmt.Errorf("comm: short VIEW payload (param %d)", i)
		}
		vals := make([]float32, nvals)
		for j := range vals {
			vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
		buf = buf[4*nvals:]
		pv.params = append(pv.params, vals)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bytes after VIEW payload", len(buf))
	}
	return pv, nil
}

// sendView broadcasts the MsgView frame to the given ranks.
func (r *Router) sendView(pv *viewPayload, to []int) error {
	size := 12 + 4*len(pv.view.Members) + 8 + len(pv.routes) + 4
	for _, vals := range pv.params {
		size += 4 + 4*len(vals)
	}
	ref := transport.LeasePayload(size)
	ref.SetBytes(appendViewPayload(ref.Bytes(), pv))
	return r.broadcastControl(transport.MsgView, pv.restart, ref, to)
}

// handleViewFrame records the leader's decision. Runs on the receive
// goroutine. Frames for epochs beyond the immediate successor are
// rejected (a joiner excepted: it adopts whatever epoch admits it);
// duplicates and frames for already-committed epochs are dropped.
func (r *Router) handleViewFrame(msg transport.Message) error {
	pv, err := decodeViewPayload(msg.Payload)
	msg.ReleasePayload()
	if err != nil {
		return err
	}
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	switch {
	case pv.view.Epoch <= r.view.Epoch:
		return nil // duplicate leader or already committed
	case pv.view.Epoch > r.view.Epoch+1 && !r.joining:
		return fmt.Errorf("comm: VIEW for epoch %d skips epoch %d", pv.view.Epoch, r.view.Epoch+1)
	}
	p := r.pending
	if p == nil {
		// A decision for a halt this node never sent: join the
		// transition so the compute loop comes and applies it.
		p = r.openLocked(unscheduled)
	}
	if p.view == nil {
		// First decision wins; a duplicate from a partitioned co-leader
		// is dropped (split-brain on link-only failures is out of scope).
		p.view = pv
	}
	r.routeCond.Broadcast()
	return nil
}

// ---- The barrier -----------------------------------------------------------

// AwaitView runs the pending epoch transition from the compute
// goroutine. nextIter is the iteration this node would launch next — its
// halt iteration (every frame it has sent is stamped below it). The call
// broadcasts the halt, waits for the leader's MsgView (composing and
// broadcasting it itself when it is the minimum live rank), applies the
// successor view, and returns it. A joining router passes any value; it
// broadcasts nothing and simply waits to be adopted.
func (r *Router) AwaitView(nextIter int) (ViewChange, error) {
	r.routeMu.Lock()
	p := r.pending
	if p == nil {
		r.routeMu.Unlock()
		return ViewChange{}, fmt.Errorf("comm: AwaitView with no epoch transition pending")
	}
	r.armViewTimerLocked(p)
	if !r.joining && !p.haltSent {
		p.haltSent = true
		p.halts[r.rank] = nextIter
		// A fence still scheduled means nothing cut in since ScheduleView
		// drained to it, so "drained at nextIter" holds.
		h := haltPayload{
			epoch: r.view.Epoch, leave: p.leave, drained: p.fence != unscheduled,
			dead: sortedRanks(p.dead), joined: sortedRanks(p.joined),
		}
		p.undrained = p.undrained || !h.drained
		old := r.view.Clone()
		r.routeMu.Unlock()
		if err := r.broadcastHalt(old, nextIter, h); err != nil {
			r.fail(err)
			return ViewChange{}, r.Err()
		}
		r.routeMu.Lock()
	}
	for p.view == nil {
		if err := r.Err(); err != nil {
			r.routeMu.Unlock()
			return ViewChange{}, err
		}
		if p.expired {
			r.routeMu.Unlock()
			err := fmt.Errorf("comm: epoch transition timed out after %v (halts from %v, dead %v)",
				r.viewTimeout, sortedRanks(boolKeys(p.halts)), sortedRanks(p.dead))
			r.fail(err)
			return ViewChange{}, err
		}
		if !r.joining && !p.composed && r.leaderLocked(p) && r.haveAllHaltsLocked(p) {
			p.composed = true
			pv, to, err := r.composeViewLocked(p)
			if err != nil {
				r.routeMu.Unlock()
				r.fail(err)
				return ViewChange{}, err
			}
			r.routeMu.Unlock()
			sendErr := r.sendView(pv, to)
			r.routeMu.Lock()
			if sendErr != nil {
				r.routeMu.Unlock()
				r.fail(sendErr)
				return ViewChange{}, sendErr
			}
			p.view = pv
			break
		}
		r.routeCond.Wait()
	}
	vc, err := r.applyLocked(p)
	r.routeMu.Unlock()
	if err != nil {
		r.fail(err)
		return ViewChange{}, err
	}
	if r.onView != nil && vc.Moved && !vc.Left {
		r.onView(vc.View)
	}
	return vc, nil
}

func boolKeys(m map[int]int) map[int]bool {
	out := make(map[int]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// leaderLocked reports whether this node is the barrier leader: the
// minimum old-view rank not observed dead. Halts are broadcast to every
// live member, so leadership fails over with no extra round trips.
func (r *Router) leaderLocked(p *transition) bool {
	for _, m := range r.view.Members {
		if !p.dead[m] {
			return m == r.rank
		}
	}
	return false
}

// haveAllHaltsLocked reports whether every live old member has halted.
func (r *Router) haveAllHaltsLocked(p *transition) bool {
	for _, m := range r.view.Members {
		if p.dead[m] {
			continue
		}
		if _, ok := p.halts[m]; !ok {
			return false
		}
	}
	return true
}

// applyLocked commits the decided view — the one swap path for every
// epoch transition. Caller holds routeMu (so the receive loop is
// excluded and the park set is frozen).
func (r *Router) applyLocked(p *transition) (ViewChange, error) {
	pv := p.view
	p.timer.Stop()
	if !pv.view.Contains(r.rank) {
		// Excluded: this node asked to leave (or the cluster moved on
		// without it). Nothing to rebuild — release the parked frames
		// and report the departure.
		for _, m := range p.held {
			m.ReleasePayload()
		}
		r.pending = nil
		return ViewChange{View: pv.view, RestartIter: pv.restart, Moved: true, Left: true}, nil
	}
	oldView := r.view
	moved := !slices.Equal(oldView.Members, pv.view.Members)
	if moved && !r.elastic {
		return ViewChange{}, fmt.Errorf("comm: VIEW changes membership to %v on a fixed-size router", pv.view)
	}
	if len(pv.routes) != len(r.plans) {
		return ViewChange{}, fmt.Errorf("comm: VIEW names %d routes, router has %d params", len(pv.routes), len(r.plans))
	}
	if pv.params != nil && len(pv.params) != len(r.plans) {
		return ViewChange{}, fmt.Errorf("comm: VIEW carries %d params, router has %d", len(pv.params), len(r.plans))
	}
	// Drain the egress backlog before the dense→rank table or any syncer
	// changes: queued sends must resolve under the epoch that produced
	// them.
	if r.pool != nil {
		r.pool.flush()
	}
	// Adopt the leader's replica when it shipped one. At a crash barrier
	// local folds may have diverged (frames fenced out below arrived on
	// some nodes and not others); adopting one authority keeps replicas
	// byte-identical.
	r.stageMu.Lock()
	for i, vals := range pv.params {
		if len(vals) != len(r.staged[i].Data) {
			r.stageMu.Unlock()
			return ViewChange{}, fmt.Errorf("comm: VIEW param %d has %d values, want %d", i, len(vals), len(r.staged[i].Data))
		}
		copy(r.staged[i].Data, vals)
	}
	r.stageMu.Unlock()

	r.viewMu.Lock()
	r.view = pv.view
	r.id = pv.view.Index(r.rank)
	r.n = pv.view.Size()
	r.viewMu.Unlock()
	if moved {
		if r.scaleFor != nil {
			r.scale = r.scaleFor(r.n)
		} else {
			r.scale = r.scale * float32(oldView.Size()) / float32(r.n)
		}
		// Fresh server-side state for the new size: every syncer below is
		// rebuilt (the shard and bank they bind to changed even when the
		// route did not), re-seeding KV pairs from the just-adopted
		// replica so every node's shards agree byte-for-byte.
		r.shard = kvstore.NewShard(r.n)
		if r.metrics != nil {
			r.shard.SetMetrics(r.metrics.KV())
		}
		r.bank = sfb.NewBank()
	}
	r.stageMu.Lock()
	for i := range r.plans {
		plan := r.plans[i]
		from := plan.Route
		if route := Route(pv.routes[i]); route != from {
			plan.Route = route
			plan.SF = nil
		} else if !moved {
			// Same members, same route: the syncer keeps its state — a
			// replan must not reset 1-bit residuals or re-seed KV pairs
			// it did not touch.
			continue
		}
		if plan.Route == RouteSFB && plan.SF == nil {
			if r.sfSource != nil {
				plan.SF = r.sfSource(i)
			}
			if plan.SF == nil {
				r.stageMu.Unlock()
				return ViewChange{}, fmt.Errorf("comm: transition moved param %d (%s) to SFB without an SF source", i, plan.Name)
			}
		}
		if !moved {
			// The outgoing syncer releases its routing-owned state from
			// the shard and bank that live on.
			r.syncers[i].Close()
		}
		s, err := r.buildSyncer(plan, r.staged[i])
		if err != nil {
			r.stageMu.Unlock()
			return ViewChange{}, err
		}
		r.syncers[i] = s
		r.plans[i] = plan
		r.initRingSlot(i, plan)
		if r.metrics != nil && plan.Route != from {
			r.pstats[i].SetRoute(plan.Route.String())
			r.metrics.RecordReplan(metrics.ReplanEvent{
				Iter: pv.restart, Epoch: pv.view.Epoch, Param: i, Name: plan.Name,
				From: from.String(), To: plan.Route.String(),
			})
		}
	}
	r.stageMu.Unlock()
	r.clock.Reset(pv.restart)
	r.viewFence = pv.restart

	if moved {
		if r.metrics != nil {
			r.metrics.RecordViewChange(metrics.ViewChangeEvent{
				Epoch:       pv.view.Epoch,
				RestartIter: pv.restart,
				Members:     append([]int(nil), pv.view.Members...),
				Dead:        sortedRanks(p.dead),
				Joined:      sortedRanks(p.joined),
				Left:        sortedRanks(p.leavers),
			})
		}
		// Sever links to crashed ranks (idempotent — the transport usually
		// already did) so straggling sends drop silently. Leavers keep
		// their links until they close them; their goodbye detaches
		// silently.
		for d := range p.dead {
			_ = r.raw.Detach(d)
		}
		// A joiner's link must be up before new-epoch traffic targets it;
		// on transports that can say so, wait (bounded by the timeout).
		if aw, ok := r.raw.(attachWaiter); ok {
			for _, m := range pv.view.Members {
				if m != r.rank && !oldView.Contains(m) {
					if err := aw.WaitAttached(m, r.viewTimeout); err != nil {
						return ViewChange{}, fmt.Errorf("comm: joiner %d never attached: %w", m, err)
					}
				}
			}
		}
	}

	// Replay the parked frames through the swapped syncers, in arrival
	// order, while still holding routeMu — the receive loop is excluded,
	// so the per-goroutine scratch discipline of Handle is preserved. The
	// iteration fence drops old-epoch traffic (all of it is stamped below
	// the restart iteration — those rounds are recomputed from the adopted
	// replica); frames from outside the view drop too.
	held := p.held
	r.pending = nil
	r.joining = false
	var err error
	for _, m := range held {
		if err == nil && int(m.Iter) >= pv.restart {
			if dense := pv.view.Index(int(m.From)); dense >= 0 {
				if idx := int(m.Layer); idx < 0 || idx >= len(r.syncers) {
					err = fmt.Errorf("comm: parked message for unknown param %d", idx)
				} else {
					m.From = int32(dense)
					err = r.syncers[idx].Handle(m)
				}
			}
		}
		m.ReleasePayload()
	}
	if err != nil {
		return ViewChange{}, err
	}
	// Refold halts that raced ahead of this commit (a fast peer already
	// halting for the epoch we just entered — cascaded transitions).
	deferred := r.deferred
	r.deferred = nil
	for i, m := range deferred {
		if err := r.foldHaltLocked(m); err != nil {
			for _, rest := range deferred[i+1:] {
				rest.ReleasePayload()
			}
			return ViewChange{}, err
		}
	}
	// Events observed after the leader composed but folded into the old
	// transition: a member of the committed view that is already dead, or
	// an attached rank the view left out. Re-open so the next transition
	// picks them up instead of losing the (once-only) transport event.
	for d := range p.dead {
		if r.view.Contains(d) {
			r.openLocked(unscheduled).dead[d] = true
		}
	}
	for j := range p.joined {
		if !r.view.Contains(j) {
			r.openLocked(unscheduled).joined[j] = true
		}
	}
	return ViewChange{View: pv.view.Clone(), RestartIter: pv.restart, Moved: moved}, nil
}
