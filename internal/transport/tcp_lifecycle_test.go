package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// freeAddrs reserves n distinct loopback addresses by binding ephemeral
// ports and releasing them. The release-to-rebind window is tiny and
// loopback-local, which keeps these tests free of fixed-port collisions.
func freeAddrs(t testing.TB, n int) []string {
	t.Helper()
	var lis []net.Listener
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lis = append(lis, l)
		addrs = append(addrs, l.Addr().String())
	}
	for _, l := range lis {
		l.Close()
	}
	return addrs
}

// dialMeshOpts forms a full mesh concurrently, one endpoint per addr.
func dialMeshOpts(t testing.TB, addrs []string, opts TCPOptions) []*TCPMesh {
	t.Helper()
	ms := make([]*TCPMesh, len(addrs))
	var wg sync.WaitGroup
	errs := make(chan error, len(addrs))
	for i := range addrs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewTCPMeshOpts(i, addrs, opts)
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

// rawConnTo returns the raw socket from m to peer, for tests that
// corrupt the frame stream behind Send's back.
func rawConnTo(m *TCPMesh, peer int) net.Conn { return m.conns[peer] }

func TestSetupTimesOutOnMissingPeer(t *testing.T) {
	addrs := freeAddrs(t, 2)
	start := time.Now()
	_, err := NewTCPMeshOpts(0, addrs, TCPOptions{SetupTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("mesh formed with no peer listening")
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("setup failed after %v, want ~300ms (backoff under a deadline, not a busy spin)", elapsed)
	}
}

func TestSetupRejectsVersionMismatch(t *testing.T) {
	addrs := freeAddrs(t, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := NewTCPMeshOpts(1, addrs, TCPOptions{SetupTimeout: 5 * time.Second})
		errc <- err
	}()
	conn := dialAccepting(t, addrs[1])
	defer conn.Close()
	var hello [helloLen]byte
	binary.LittleEndian.PutUint32(hello[0:4], handshakeMagic)
	hello[4] = protocolVersion + 7
	binary.LittleEndian.PutUint32(hello[5:9], 0)
	binary.LittleEndian.PutUint32(hello[9:13], 2)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	err := <-errc
	if err == nil || !contains(err.Error(), "protocol") {
		t.Fatalf("err = %v, want protocol version mismatch", err)
	}
}

func TestSetupRejectsDuplicatePeer(t *testing.T) {
	addrs := freeAddrs(t, 3)
	errc := make(chan error, 1)
	go func() {
		_, err := NewTCPMeshOpts(2, addrs, TCPOptions{SetupTimeout: 5 * time.Second})
		errc <- err
	}()
	hello := func() []byte {
		b := make([]byte, helloLen)
		binary.LittleEndian.PutUint32(b[0:4], handshakeMagic)
		b[4] = protocolVersion
		binary.LittleEndian.PutUint32(b[5:9], 0) // both impostors claim id 0
		binary.LittleEndian.PutUint32(b[9:13], 3)
		return b
	}
	c1 := dialAccepting(t, addrs[2])
	defer c1.Close()
	if _, err := c1.Write(hello()); err != nil {
		t.Fatal(err)
	}
	// Wait for the ack so the first registration definitely happened
	// before the duplicate arrives.
	ack := make([]byte, ackLen)
	if _, err := readFull(c1, ack); err != nil {
		t.Fatal(err)
	}
	c2 := dialAccepting(t, addrs[2])
	defer c2.Close()
	if _, err := c2.Write(hello()); err != nil {
		t.Fatal(err)
	}
	err := <-errc
	if err == nil || !contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate peer rejection", err)
	}
}

func TestSetupIgnoresStrayConnections(t *testing.T) {
	addrs := freeAddrs(t, 2)
	meshErr := make(chan error, 1)
	var m1 *TCPMesh
	go func() {
		var err error
		m1, err = NewTCPMeshOpts(1, addrs, TCPOptions{SetupTimeout: 10 * time.Second})
		meshErr <- err
	}()
	// A port scanner: connects, spews garbage, hangs up.
	stray := dialAccepting(t, addrs[1])
	stray.Write([]byte("GET / HTTP/1.1\r\n"))
	stray.Close()
	// The real peer still gets through.
	m0, err := NewTCPMeshOpts(0, addrs, TCPOptions{SetupTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	if err := <-meshErr; err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	if err := m0.Send(1, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	if msg, err := m1.Recv(); err != nil || msg.Type != MsgBarrier {
		t.Fatalf("recv after stray conn: %+v %v", msg, err)
	} else {
		msg.ReleasePayload()
	}
}

func TestSendRejectsOversizedFrame(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{MaxFrameBytes: 4096})
	defer ms[0].Close()
	defer ms[1].Close()

	big := Message{Type: MsgPush, Payload: make([]byte, 8192)}
	if err := ms[0].Send(1, big); err == nil || !contains(err.Error(), "MaxFrameBytes") {
		t.Fatalf("Send err = %v, want local MaxFrameBytes rejection", err)
	}
	if err := ms[0].SendBatch(1, []Message{{Type: MsgPush}, big}); err == nil || !contains(err.Error(), "MaxFrameBytes") {
		t.Fatalf("SendBatch err = %v, want local MaxFrameBytes rejection", err)
	}
	// The rejection is local: the link stays healthy.
	if err := ms[0].Send(1, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	if msg, err := ms[1].Recv(); err != nil || msg.Type != MsgBarrier {
		t.Fatalf("recv after rejected send: %+v %v", msg, err)
	} else {
		msg.ReleasePayload()
	}
}

// Loopback must enforce the same frame bounds as the remote path: a
// tensor too big for the mesh has to fail identically whether or not
// its destination happens to be colocated (it used to slip through).
func TestLoopbackRejectsOversizedFrame(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{MaxFrameBytes: 4096})
	defer ms[0].Close()
	defer ms[1].Close()

	big := Message{Type: MsgPush, Payload: make([]byte, 8192)}
	if err := ms[0].Send(0, big); err == nil || !contains(err.Error(), "MaxFrameBytes") {
		t.Fatalf("loopback Send err = %v, want MaxFrameBytes rejection", err)
	}
	if err := ms[0].SendBatch(0, []Message{big, {Type: MsgPush}}); err == nil || !contains(err.Error(), "MaxFrameBytes") {
		t.Fatalf("loopback SendBatch err = %v, want MaxFrameBytes rejection", err)
	}
	// In-bounds loopback still flows after the rejections.
	if err := ms[0].Send(0, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	if msg, err := ms[0].Recv(); err != nil || msg.Type != MsgBarrier {
		t.Fatalf("recv after rejected loopback: %+v %v", msg, err)
	} else {
		msg.ReleasePayload()
	}
}

// The vectored egress path must copy only the length prefix and header
// into transport scratch — payload bytes ride to the kernel uncopied —
// and loopback must not count at all.
func TestOnCopyCountsHeaderBytesOnly(t *testing.T) {
	var copied atomic.Int64
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{OnCopy: func(n int) { copied.Add(int64(n)) }})
	defer ms[0].Close()
	defer ms[1].Close()

	payload := make([]byte, 64<<10)
	if err := ms[0].Send(1, Message{Type: MsgPush, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	batch := make([]Message, 4)
	for i := range batch {
		batch[i] = Message{Type: MsgPush, Iter: int32(i), Payload: payload}
	}
	if err := ms[0].SendBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	// Loopback never touches scratch and must not be counted.
	if err := ms[0].Send(0, Message{Type: MsgBarrier, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if msg, err := ms[0].Recv(); err != nil || msg.Type != MsgBarrier {
		t.Fatalf("loopback recv: %+v %v", msg, err)
	} else {
		msg.ReleasePayload()
	}
	for i := 0; i < 5; i++ {
		msg, err := ms[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		msg.ReleasePayload()
	}
	const frames = 5 // 1 Send + 4 batched
	if got, want := copied.Load(), int64(frames*(4+headerLen)); got != want {
		t.Fatalf("transport copied %d bytes, want %d (prefix+header only for %d frames)", got, want, frames)
	}
}

// assertPeerDown asserts that Recv surfaces *ErrPeerDown for the given
// peer within a deadline, rather than hanging.
func assertPeerDown(t *testing.T, m Mesh, wantPeer int) {
	t.Helper()
	type res struct {
		msg Message
		err error
	}
	done := make(chan res, 1)
	go func() {
		msg, err := m.Recv()
		done <- res{msg, err}
	}()
	select {
	case r := <-done:
		var pd *ErrPeerDown
		if !errors.As(r.err, &pd) {
			t.Fatalf("Recv = %+v, %v; want *ErrPeerDown", r.msg, r.err)
		}
		if pd.Peer != wantPeer {
			t.Fatalf("ErrPeerDown.Peer = %d, want %d (cause: %v)", pd.Peer, wantPeer, pd.Cause)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv still hanging 10s after the frame stream went bad")
	}
}

func TestOversizedLengthPrefixSurfacesPeerDown(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{MaxFrameBytes: 1 << 16})
	defer ms[0].Close()
	defer ms[1].Close()

	// A corrupt (or hostile) length prefix demanding 4 GB.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 0xFFFFFFF0)
	if _, err := rawConnTo(ms[0], 1).Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	assertPeerDown(t, ms[1], 0)
}

func TestTruncatedFrameSurfacesPeerDown(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{})
	defer ms[0].Close()
	defer ms[1].Close()

	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 100) // promise 100 bytes...
	raw := rawConnTo(ms[0], 1)
	raw.Write(hdr[:])
	raw.Write(make([]byte, 10)) // ...deliver 10, then die mid-frame
	raw.Close()
	assertPeerDown(t, ms[1], 0)
}

func TestBadFrameTypeSurfacesPeerDown(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{})
	defer ms[0].Close()
	defer ms[1].Close()

	frame := make([]byte, 4+headerLen)
	binary.LittleEndian.PutUint32(frame[0:4], headerLen)
	frame[4] = 0x7A // no such message type
	if _, err := rawConnTo(ms[0], 1).Write(frame); err != nil {
		t.Fatal(err)
	}
	assertPeerDown(t, ms[1], 0)
}

func TestCrashWithoutGoodbyeSurfacesPeerDown(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{})
	defer ms[1].Close()

	// Queued traffic is still delivered before the failure surfaces.
	if err := ms[0].Send(1, Message{Type: MsgPush, Iter: 7}); err != nil {
		t.Fatal(err)
	}
	if msg, err := ms[1].Recv(); err != nil || msg.Iter != 7 {
		t.Fatalf("queued msg: %+v %v", msg, err)
	} else {
		msg.ReleasePayload()
	}
	// Simulate a crash: the socket dies without the goodbye Close sends.
	rawConnTo(ms[0], 1).Close()
	assertPeerDown(t, ms[1], 0)
}

func TestGracefulCloseIsNotPeerDown(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{})

	ms[0].Close()
	errc := make(chan error, 1)
	go func() {
		_, err := ms[1].Recv()
		errc <- err
	}()
	// The goodbye must keep the survivor's Recv blocked (no spurious
	// ErrPeerDown on a clean departure)...
	select {
	case err := <-errc:
		t.Fatalf("Recv returned %v after peer's graceful Close", err)
	case <-time.After(300 * time.Millisecond):
	}
	// ...until its own Close, which reports plain closure.
	ms[1].Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// Loopback must never block, even far past the inbox bound: the comm
// receive loop sends to itself while being the inbox's only consumer,
// so a blocking (or panicking) self-send would deadlock a healthy mesh.
func TestLoopbackNeverBlocksAndKeepsOrder(t *testing.T) {
	addrs := freeAddrs(t, 1)
	m, err := NewTCPMeshOpts(0, addrs, TCPOptions{InboxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100 // 50x the inbox depth, sent with no concurrent Recv
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := m.Send(0, Message{Type: MsgBarrier, Iter: int32(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loopback sends blocked with nobody receiving")
	}
	for i := 0; i < n; i++ {
		msg, err := m.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Iter != int32(i) {
			t.Fatalf("loopback reordered: got iter %d at position %d", msg.Iter, i)
		}
	}
	// Queued messages drain after Close, then closure reports; new
	// loopback sends fail cleanly instead of panicking.
	if err := m.Send(0, Message{Type: MsgBarrier}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := m.Send(0, Message{Type: MsgBarrier}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	if _, err := m.Recv(); err != nil {
		t.Fatalf("queued loopback lost at Close: %v", err)
	}
	if _, err := m.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv = %v, want ErrClosed", err)
	}
}

// okShutdownErr reports whether err is an acceptable outcome for an
// operation racing Close: success, clean closure, or a link that died
// under the teardown.
func okShutdownErr(err error) bool {
	var pd *ErrPeerDown
	return err == nil || errors.Is(err, ErrClosed) || errors.As(err, &pd)
}

// TestCloseRaceWithTraffic hammers Send/SendBatch/Recv (remote and
// loopback) on both endpoints while both Close concurrently; run under
// -race. No panic (send on closed channel), no deadlock, and every
// error is a principled shutdown error.
func TestCloseRaceWithTraffic(t *testing.T) {
	for round := 0; round < 3; round++ {
		addrs := freeAddrs(t, 2)
		ms := dialMeshOpts(t, addrs, TCPOptions{InboxDepth: 8})
		var wg sync.WaitGroup
		for side := 0; side < 2; side++ {
			m, peer := ms[side], 1-side
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; ; k++ {
						var err error
						switch k % 3 {
						case 0:
							err = m.Send(peer, Message{Type: MsgPush, Iter: int32(k), Payload: make([]byte, 256)})
						case 1:
							err = m.Send(m.Self(), Message{Type: MsgBarrier, Iter: int32(k)})
						default:
							err = m.SendBatch(peer, []Message{
								{Type: MsgPush, Chunk: 0, Iter: int32(k)},
								{Type: MsgPush, Chunk: 1, Iter: int32(k)},
							})
						}
						if err != nil {
							if !okShutdownErr(err) {
								t.Errorf("send: %v", err)
							}
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					msg, err := m.Recv()
					if err != nil {
						if !okShutdownErr(err) {
							t.Errorf("recv: %v", err)
						}
						return
					}
					msg.ReleasePayload()
				}
			}()
		}
		time.Sleep(20 * time.Millisecond)
		var cwg sync.WaitGroup
		for _, m := range ms {
			m := m
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				m.Close()
			}()
		}
		cwg.Wait()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("workers still blocked after both endpoints closed")
		}
		// A reader racing Close can queue a frame after the consumer above
		// saw ErrClosed. Once the readers are gone nothing more arrives, so
		// collect the stragglers' leases: Recv hands out queued traffic
		// before it reports closure.
		for _, m := range ms {
			m.wg.Wait()
			for {
				msg, err := m.Recv()
				if err != nil {
					break
				}
				msg.ReleasePayload()
			}
		}
	}
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ms := dialMeshOpts(t, addrs, TCPOptions{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, m := range ms {
			m := m
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := m.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
		}
	}
	wg.Wait()
}

// ---- small test helpers ----------------------------------------------------

func dialAccepting(t *testing.T, addr string) net.Conn {
	t.Helper()
	var err error
	for i := 0; i < 200; i++ {
		var c net.Conn
		if c, err = net.Dial("tcp", addr); err == nil {
			return c
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("dial %s: %v", addr, err)
	return nil
}

func readFull(c net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := c.Read(buf[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
