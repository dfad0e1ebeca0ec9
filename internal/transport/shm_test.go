//go:build linux

package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// shmMeshes forms an n-node shared-memory mesh in-process (OFD locks
// conflict between open file descriptions, so endpoints in one test
// process behave exactly like separate processes). Construction is
// concurrent because NewSHMMesh barriers on every peer's liveness lock.
func shmMeshes(t testing.TB, n int, opts SHMOptions) []*SHMMesh {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	ms := make([]*SHMMesh, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewSHMMesh(i, n, opts)
			if err != nil {
				errs <- err
				return
			}
			ms[i] = m
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	return ms
}

func TestSHMMeshBasicExchange(t *testing.T) {
	base := OutstandingPayloadLeases()
	ms := shmMeshes(t, 3, SHMOptions{})

	// Remote send with payload integrity.
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := ms[0].Send(1, Message{Type: MsgPush, Layer: 3, Chunk: 2, Iter: 7, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	msg, err := ms[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgPush || msg.From != 0 || msg.Layer != 3 || msg.Chunk != 2 || msg.Iter != 7 {
		t.Fatalf("header mismatch: %+v", msg)
	}
	if len(msg.Payload) != len(payload) {
		t.Fatalf("payload length %d, want %d", len(msg.Payload), len(payload))
	}
	for i, b := range msg.Payload {
		if b != byte(i) {
			t.Fatalf("payload[%d] = %d, want %d", i, b, byte(i))
		}
	}
	msg.ReleasePayload()

	// Batch ordering across a different directed pair.
	var batch []Message
	for i := 0; i < 32; i++ {
		batch = append(batch, Message{Type: MsgSF, Iter: int32(i), Payload: []byte{byte(i)}})
	}
	if err := ms[2].SendBatch(0, batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		got, err := ms[0].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.From != 2 || got.Iter != int32(i) || got.Payload[0] != byte(i) {
			t.Fatalf("batch msg %d out of order: %+v", i, got)
		}
		got.ReleasePayload()
	}

	// Loopback.
	if err := ms[1].Send(1, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	if got, err := ms[1].Recv(); err != nil || got.Type != MsgBarrier {
		t.Fatalf("loopback recv: %+v %v", got, err)
	} else {
		got.ReleasePayload()
	}

	for _, m := range ms {
		m.Close()
	}
	drainLeases(t, base)
}

// The ring must survive many wraparounds at the worst case: frames at
// exactly MaxFrameBytes in a ring sized to hold barely more than one,
// with the consumer applying backpressure. Payload integrity is
// verified on every frame — a wrap bug shows up as torn bytes.
func TestSHMRingWraparoundMaxFrames(t *testing.T) {
	base := OutstandingPayloadLeases()
	const ring = 4096
	ms := shmMeshes(t, 2, SHMOptions{RingBytes: ring})
	// MaxFrameBytes defaults to RingBytes-4: one max frame plus its
	// prefix exactly fills the ring.
	maxPayload := ms[0].opts.MaxFrameBytes - headerLen

	const frames = 64
	done := make(chan error, 1)
	go func() {
		payload := make([]byte, maxPayload)
		for i := 0; i < frames; i++ {
			for j := range payload {
				payload[j] = byte(i + j)
			}
			if err := ms[0].Send(1, Message{Type: MsgPush, Iter: int32(i), Payload: payload}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < frames; i++ {
		msg, err := ms[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Iter != int32(i) || len(msg.Payload) != maxPayload {
			t.Fatalf("frame %d: iter %d, %d bytes (want %d)", i, msg.Iter, len(msg.Payload), maxPayload)
		}
		for j, b := range msg.Payload {
			if b != byte(i+j) {
				t.Fatalf("frame %d torn at byte %d: got %d want %d", i, j, b, byte(i+j))
			}
		}
		msg.ReleasePayload()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ms[0].Close()
	ms[1].Close()
	drainLeases(t, base)
}

// Frame bounds apply on the remote and loopback paths alike, same
// policy as TCPMesh.
func TestSHMRejectsOversizedFrame(t *testing.T) {
	ms := shmMeshes(t, 2, SHMOptions{RingBytes: 4096})
	defer ms[0].Close()
	defer ms[1].Close()

	big := Message{Type: MsgPush, Payload: make([]byte, 8192)}
	if err := ms[0].Send(1, big); err == nil || !contains(err.Error(), "MaxFrameBytes") {
		t.Fatalf("Send err = %v, want MaxFrameBytes rejection", err)
	}
	if err := ms[0].Send(0, big); err == nil || !contains(err.Error(), "MaxFrameBytes") {
		t.Fatalf("loopback Send err = %v, want MaxFrameBytes rejection", err)
	}
	if err := ms[0].SendBatch(1, []Message{big, {Type: MsgPush}}); err == nil || !contains(err.Error(), "MaxFrameBytes") {
		t.Fatalf("SendBatch err = %v, want MaxFrameBytes rejection", err)
	}
	// The link stays healthy after local rejections.
	if err := ms[0].Send(1, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	if msg, err := ms[1].Recv(); err != nil || msg.Type != MsgBarrier {
		t.Fatalf("recv after rejected send: %+v %v", msg, err)
	} else {
		msg.ReleasePayload()
	}
}

// A peer whose liveness lock drops without the goodbye flag has
// crashed; an idle receiver must surface *ErrPeerDown, not hang.
func TestSHMPeerCrashSurfacesErrPeerDown(t *testing.T) {
	ms := shmMeshes(t, 2, SHMOptions{})
	defer ms[0].Close()

	ms[1].crashForTest()
	assertPeerDown(t, ms[0], 1)
}

// A sender blocked on a full ring whose consumer crashes must unblock
// with *ErrPeerDown instead of spinning forever.
func TestSHMBlockedSenderUnblocksOnPeerCrash(t *testing.T) {
	ms := shmMeshes(t, 2, SHMOptions{RingBytes: 4096})
	defer ms[0].Close()

	// ms[1] never reads; fill its inbox-side ring until Send blocks,
	// then crash the consumer. Payloads near max frame size fill the
	// ring in a handful of sends.
	payload := make([]byte, ms[0].opts.MaxFrameBytes-headerLen)
	errc := make(chan error, 1)
	go func() {
		for {
			if err := ms[0].Send(1, Message{Type: MsgPush, Payload: payload}); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Give the sender time to wedge against the full ring, then crash.
	time.Sleep(50 * time.Millisecond)
	ms[1].crashForTest()
	select {
	case err := <-errc:
		var pd *ErrPeerDown
		if !errors.As(err, &pd) || pd.Peer != 1 {
			t.Fatalf("blocked Send err = %v, want *ErrPeerDown{Peer: 1}", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send still blocked 10s after consumer crash")
	}
}

// A gracefully closed peer is not a failure: everything it sent before
// Close must be delivered, and the receiver's ring reader ends quietly
// (Recv keeps serving other links until the local endpoint closes).
func TestSHMGracefulCloseDeliversInFlight(t *testing.T) {
	base := OutstandingPayloadLeases()
	ms := shmMeshes(t, 2, SHMOptions{})

	const frames = 100
	for i := 0; i < frames; i++ {
		if err := ms[0].Send(1, Message{Type: MsgPush, Iter: int32(i), Payload: []byte{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	ms[0].Close()
	for i := 0; i < frames; i++ {
		msg, err := ms[1].Recv()
		if err != nil {
			t.Fatalf("frame %d after graceful close: %v", i, err)
		}
		if msg.Iter != int32(i) {
			t.Fatalf("frame %d: got iter %d", i, msg.Iter)
		}
		msg.ReleasePayload()
	}
	ms[1].Close()
	if _, err := ms[1].Recv(); err != ErrClosed {
		t.Fatalf("Recv after Close = %v, want ErrClosed", err)
	}
	drainLeases(t, base)
}

// Close racing a storm of concurrent SendBatch calls must neither
// deadlock, drop lease references, nor touch unmapped memory. Run with
// -race.
func TestSHMCloseRacesSendBatch(t *testing.T) {
	base := OutstandingPayloadLeases()
	ms := shmMeshes(t, 2, SHMOptions{RingBytes: 1 << 16})

	// Consumer drains until its endpoint reports closure or peer loss.
	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	go func() {
		defer consumerWG.Done()
		for {
			msg, err := ms[1].Recv()
			if err != nil {
				return
			}
			msg.ReleasePayload()
		}
	}()

	var senderWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		senderWG.Add(1)
		go func() {
			defer senderWG.Done()
			for i := 0; ; i++ {
				var batch []Message
				for j := 0; j < 8; j++ {
					ref := LeasePayload(512)
					batch = append(batch, Message{Type: MsgPush, Iter: int32(i), Payload: ref.Bytes()[:512], lease: ref})
				}
				err := ms[0].SendBatch(1, batch)
				for _, msg := range batch {
					msg.ReleasePayload()
				}
				if err != nil {
					var pd *ErrPeerDown
					if err != ErrClosed && !errors.As(err, &pd) {
						panic(fmt.Sprintf("unexpected SendBatch error: %v", err))
					}
					return
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	ms[0].Close()
	senderWG.Wait()
	ms[1].Close()
	consumerWG.Wait()
	drainLeases(t, base)
}

// Two endpoints claiming the same node id in the same rendezvous
// directory is a deployment error and must fail loudly at setup.
func TestSHMDuplicateIDRejected(t *testing.T) {
	dir := t.TempDir()
	ms := shmMeshes(t, 2, SHMOptions{Dir: dir})
	defer ms[0].Close()
	defer ms[1].Close()

	if _, err := NewSHMMesh(0, 2, SHMOptions{Dir: dir}); err == nil || !contains(err.Error(), "already running") {
		t.Fatalf("duplicate id err = %v, want liveness-lock rejection", err)
	}
}

// An elastic shm endpoint survives a peer crash: the dead slot is
// detached, a synthetic MsgPeerGone surfaces through Recv, and the
// survivors keep exchanging traffic — the same contract the elastic
// ChanMesh and TCPMesh present.
func TestSHMElasticCrashDeliversPeerGone(t *testing.T) {
	ms := shmMeshes(t, 3, SHMOptions{Elastic: true})
	defer ms[0].Close()
	defer ms[1].Close()

	ms[2].crashForTest()
	for _, r := range []int{0, 1} {
		msg := recvType(t, ms[r], MsgPeerGone)
		if msg.From != 2 {
			t.Fatalf("rank %d: MsgPeerGone.From = %d, want 2", r, msg.From)
		}
	}
	// Sends to the dead slot drop silently; survivor traffic flows.
	if err := ms[0].Send(2, Message{Type: MsgPush}); err != nil {
		t.Fatalf("send to dead slot: %v", err)
	}
	if err := ms[0].Send(1, Message{Type: MsgBcast, Iter: 5}); err != nil {
		t.Fatal(err)
	}
	if msg := recvType(t, ms[1], MsgBcast); msg.From != 0 || msg.Iter != 5 {
		t.Fatalf("survivor traffic corrupted: %+v", msg)
	}
}

// Detaching a peer administratively must not synthesize MsgPeerGone,
// must drop sends to it, and must flag its ingress ring so the peer's
// own blocked writes unblock.
func TestSHMElasticDetach(t *testing.T) {
	ms := shmMeshes(t, 2, SHMOptions{Elastic: true})
	defer ms[0].Close()
	defer ms[1].Close()

	if err := ms[0].Detach(1); err != nil {
		t.Fatal(err)
	}
	if err := ms[0].Send(1, Message{Type: MsgPush}); err != nil {
		t.Fatalf("send after detach: %v", err)
	}
	// Non-elastic endpoints refuse Detach.
	fixed := shmMeshes(t, 2, SHMOptions{})
	defer fixed[0].Close()
	defer fixed[1].Close()
	if err := fixed[0].Detach(1); err == nil {
		t.Fatal("Detach on a fixed-size shm mesh must fail")
	}
}
