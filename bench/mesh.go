package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// linkModel is the benchmark's own limited-bandwidth network: each
// destination is one serial wire, and a frame occupies it for
// WireBytes/bandwidth plus a fixed latency. A sender blocks until its
// frame has left the wire, then hands it to the real transport. The
// wire's free time is kept as a clock rather than a held lock, so a late
// wake-up from one sleep does not push back every frame queued behind
// it: the modeled time per op stays the bytes sent over the bandwidth.
type linkModel struct {
	bytesPerS float64
	latency   time.Duration

	mu   sync.Mutex
	free []time.Time // per destination: when the wire is next idle
}

func newLinkModel(n int, bytesPerS float64, latency time.Duration) *linkModel {
	return &linkModel{bytesPerS: bytesPerS, latency: latency, free: make([]time.Time, n)}
}

func (l *linkModel) wireTime(bytes int) time.Duration {
	return l.latency + time.Duration(float64(bytes)/l.bytesPerS*float64(time.Second))
}

// reserve books the wire to `to` for a frame of the given size arriving
// at now, and returns when its transfer starts and ends.
func (l *linkModel) reserve(to, bytes int, now time.Time) (start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start = now
	if l.free[to].After(start) {
		start = l.free[to]
	}
	end = start.Add(l.wireTime(bytes))
	l.free[to] = end
	return start, end
}

// probeMesh is the benchmark's view of a worker's transport endpoint: it
// counts the non-loopback wire bytes of every iteration,
// optionally routes sends through the modeled link, and optionally
// records a span around each call into the transport.
type probeMesh struct {
	inner transport.Mesh
	link  *linkModel // nil: raw transport
	rec   *recorder  // nil: untraced

	// Indexed by the frame's iteration; frames stamped outside the run's
	// range (control traffic) land in the last slot.
	bytes []atomic.Int64
}

func newProbeMesh(inner transport.Mesh, iters int, link *linkModel, rec *recorder) *probeMesh {
	return &probeMesh{inner: inner, link: link, rec: rec, bytes: make([]atomic.Int64, iters+1)}
}

func (m *probeMesh) Self() int { return m.inner.Self() }
func (m *probeMesh) N() int    { return m.inner.N() }

func (m *probeMesh) slot(iter int32) int {
	if iter < 0 || int(iter) >= len(m.bytes)-1 {
		return len(m.bytes) - 1
	}
	return int(iter)
}

// stepID is the reserved span id of op's train.step span.
func stepID(op int) int { return op + 1 }

// egress accounts for and, if configured, delays and traces one call's
// worth of frames, then runs deliver (the real Send or SendBatch).
func (m *probeMesh) egress(to int, iter int32, wire int, deliver func() error) error {
	op := m.slot(iter)
	m.bytes[op].Add(int64(wire))
	if m.link == nil && m.rec == nil {
		return deliver()
	}
	id := m.rec.newID()
	arrive := time.Now()
	if m.link != nil {
		start, end := m.link.reserve(to, wire, arrive)
		time.Sleep(time.Until(end))
		m.rec.add(0, id, op, "link.queue", arrive, start)
		m.rec.add(0, id, op, "link.wire", start, end)
	}
	sendStart := time.Now()
	err := deliver()
	done := time.Now()
	m.rec.add(0, id, op, "transport.send", sendStart, done)
	m.rec.add(id, stepID(op), op, "mesh.send", arrive, done)
	return err
}

func (m *probeMesh) Send(to int, msg transport.Message) error {
	if to == m.Self() {
		return m.inner.Send(to, msg)
	}
	return m.egress(to, msg.Iter, transport.WireBytes(msg), func() error { return m.inner.Send(to, msg) })
}

func (m *probeMesh) SendBatch(to int, msgs []transport.Message) error {
	if to == m.Self() || len(msgs) == 0 {
		return m.inner.SendBatch(to, msgs)
	}
	wire := 0
	for _, msg := range msgs {
		wire += transport.WireBytes(msg)
	}
	return m.egress(to, msgs[0].Iter, wire, func() error { return m.inner.SendBatch(to, msgs) })
}

func (m *probeMesh) Recv() (transport.Message, error) {
	if m.rec == nil {
		return m.inner.Recv()
	}
	start := time.Now()
	msg, err := m.inner.Recv()
	if err == nil {
		m.rec.add(0, 0, m.slot(msg.Iter), "transport.recv_wait", start, time.Now())
	}
	return msg, err
}

func (m *probeMesh) Detach(peer int) error { return m.inner.Detach(peer) }
func (m *probeMesh) Close() error          { return m.inner.Close() }

// sentBetween sums the wire bytes of iterations [lo, hi).
func (m *probeMesh) sentBetween(lo, hi int) (bytes int64) {
	for i := lo; i < hi; i++ {
		bytes += m.bytes[i].Load()
	}
	return bytes
}
