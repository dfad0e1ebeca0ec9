package transport

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// drainLeases polls until the outstanding-lease count returns to base
// (in-flight frames may still be crossing sockets when the sender
// finishes) or the deadline passes. A count below base can only rise
// back by leaking, so it fails at once: the baseline itself was inflated
// by leases an earlier test left outstanding and released late.
func drainLeases(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := OutstandingPayloadLeases()
		if n == base {
			return
		}
		if n < base {
			t.Fatalf("payload leases fell to %d, below the baseline %d: an earlier test's straggler release landed inside this one", n, base)
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked payload leases: %d outstanding, want %d", n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMain holds the whole package to the discipline drainLeases checks
// per test: every lease a test takes out is returned, so the gauge ends
// at zero. One that does not inflates every later baseline, and its late
// release then drops a TestPayloadLease* gauge below where it started.
func TestMain(m *testing.M) {
	code := m.Run()
	deadline := time.Now().Add(5 * time.Second)
	for code == 0 && OutstandingPayloadLeases() != 0 {
		if time.Now().After(deadline) {
			fmt.Printf("FAIL: %d payload leases outstanding after the last test\n", OutstandingPayloadLeases())
			code = 1
			break
		}
		time.Sleep(time.Millisecond)
	}
	os.Exit(code)
}

// A balanced lease flow over the in-process mesh — lease, send, consume,
// release on both ends — must return the outstanding-lease count to its
// baseline; a forgotten Release anywhere in the path fails this test.
func TestPayloadLeaseBalancedChanMesh(t *testing.T) {
	base := OutstandingPayloadLeases()
	ms := NewChanCluster(2)
	defer ms[0].Close()

	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			msg, err := ms[1].Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if len(msg.Payload) != 100 {
				t.Errorf("payload len %d", len(msg.Payload))
			}
			msg.ReleasePayload()
		}
	}()
	for i := 0; i < rounds; i++ {
		ref := LeasePayload(100)
		buf := append(ref.Bytes(), make([]byte, 100)...)
		ref.SetBytes(buf)
		msg := Message{Type: MsgPush, Payload: buf}
		msg.AttachLease(ref)
		if err := ms[0].Send(1, msg); err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	wg.Wait()
	drainLeases(t, base)
}

// The TCP read loop leases one pooled buffer per inbound frame; a
// consumer that releases every message must bring the count back to
// baseline — this is the regression net for a read-loop or inbox path
// that drops the lease.
func TestPayloadLeaseBalancedTCP(t *testing.T) {
	base := OutstandingPayloadLeases()
	ms := dialMeshOpts(t, freeAddrs(t, 2), TCPOptions{})

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			msg, err := ms[1].Recv()
			if err != nil {
				t.Error(err)
				return
			}
			msg.ReleasePayload()
		}
	}()
	payload := make([]byte, 2048)
	for i := 0; i < rounds; i++ {
		if err := ms[0].Send(1, Message{Type: MsgPush, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for _, m := range ms {
		m.Close()
	}
	drainLeases(t, base)
}

// A lease shared by a broadcast must survive until every reference is
// gone, and concurrent Retain/Release from many goroutines must be
// race-clean (this test runs under -race in CI).
func TestPayloadLeaseConcurrentRefcount(t *testing.T) {
	base := OutstandingPayloadLeases()
	ref := LeasePayload(512)
	const holders = 16
	var wg sync.WaitGroup
	for i := 0; i < holders; i++ {
		ref.Retain()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ref.Bytes()
			ref.Release()
		}()
	}
	ref.Release()
	wg.Wait()
	drainLeases(t, base)
}

// A buffer grown past its leased capacity must be refiled by what it
// actually holds: if Release filed it one size class up, a later lease
// from that class could receive an undersized buffer and the read
// loop's ref.Bytes()[:n] would panic.
func TestPayloadGrownBufferRefiledByFloorClass(t *testing.T) {
	ref := LeasePayload(256)
	// Grow to a non-power-of-two capacity, as an encoder appending past
	// the lease would.
	grown := append(ref.Bytes(), make([]byte, 10000)...)
	ref.SetBytes(grown)
	ref.Release()

	// Drain pooled refs for the class that 10000 rounds *up* to; every
	// buffer handed out must honor the class promise.
	for i := 0; i < 64; i++ {
		r := LeasePayload(12000)
		b := r.Bytes()[:12000] // must not panic
		_ = b
		r.Release()
	}
}

// Over-releasing is a lifetime bug that would recycle a buffer still
// referenced elsewhere; it must fail loudly, not corrupt a tensor.
func TestPayloadDoubleReleasePanics(t *testing.T) {
	ref := LeasePayload(64)
	ref.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	ref.Release()
}

// Retaining a lease after its count hit zero means someone held Payload
// past ReleasePayload; that must also fail loudly.
func TestPayloadRetainAfterReleasePanics(t *testing.T) {
	ref := LeasePayload(64)
	ref.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final Release did not panic")
		}
	}()
	ref.Retain()
}

// ReleasePayload on an unleased message is a documented no-op, so
// consumers can release unconditionally.
func TestReleasePayloadWithoutLease(t *testing.T) {
	msg := Message{Type: MsgPush, Payload: []byte{1, 2, 3}}
	msg.ReleasePayload()
	msg.ReleasePayload()
}
