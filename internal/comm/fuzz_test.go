package comm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/cluster"
)

// The control plane's decoders take bytes straight off a peer's socket,
// and a MsgView body is adopted verbatim as this node's replica. The
// contract under fuzz, for both: never panic, never size anything by a
// count the input cannot back (a claimed ndead / member count / nvals
// must be rejected before the allocation it implies), and accept only
// canonical encodings — whatever decodes re-encodes to the same bytes.

func FuzzDecodeHaltPayload(f *testing.F) {
	valid := appendHaltPayload(nil, haltPayload{epoch: 3, leave: true, drained: true, dead: []int{2, 5}, joined: []int{7}})
	f.Add(valid)
	f.Add(appendHaltPayload(nil, haltPayload{}))
	for _, cut := range []int{3, 5, 8, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(append(bytes.Clone(valid), 0))                    // trailing byte
	f.Add([]byte{0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown flag bit
	huge := binary.LittleEndian.AppendUint32([]byte{0, 0, 0, 0, 0}, 0xFFFFFFFF)
	f.Add(huge) // ndead the buffer cannot possibly back

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHaltPayload(data)
		if err != nil {
			return
		}
		if n := len(h.dead) + len(h.joined); n > len(data)/4 {
			t.Fatalf("decoded %d ranks from a %d-byte payload", n, len(data))
		}
		if enc := appendHaltPayload(nil, h); !bytes.Equal(enc, data) {
			t.Fatalf("accepted a non-canonical halt: %x re-encodes to %x", data, enc)
		}
	})
}

func FuzzDecodeViewPayload(f *testing.F) {
	view := cluster.View{Epoch: 4, Members: []int{0, 1, 3}}
	full := appendViewPayload(nil, &viewPayload{
		view: view, restart: 12, routes: []byte{0, 1, 3},
		params: [][]float32{{1, -2.5, 3}, {}, {4}},
	})
	bare := appendViewPayload(nil, &viewPayload{view: view, restart: 12, routes: []byte{0, 1, 3}})
	f.Add(full)
	f.Add(bare)
	for _, cut := range []int{5, 12, 22, 30, len(full) - 2} {
		f.Add(full[:cut])
	}
	f.Add(append(bytes.Clone(bare), 9)) // trailing byte
	// Counts the buffer cannot back: members, routes, params, values.
	u32 := binary.LittleEndian.AppendUint32
	f.Add(u32([]byte{1, 0, 0, 0}, 0xFFFFFFFF))
	f.Add(u32(bytes.Clone(bare[:len(bare)-8-3]), 0xFFFFFFFF))
	f.Add(u32(bytes.Clone(bare[:len(bare)-4]), 0xFFFFFFFF))
	f.Add(u32(u32(bytes.Clone(bare[:len(bare)-4]), 1), 0x40000000))

	f.Fuzz(func(t *testing.T, data []byte) {
		pv, err := decodeViewPayload(data)
		if err != nil {
			return
		}
		vals := 0
		for _, p := range pv.params {
			vals += len(p)
		}
		if n := len(pv.view.Members) + len(pv.params) + vals; n > len(data)/4 || len(pv.routes) > len(data) {
			t.Fatalf("decoded %d members+params+values and %d routes from a %d-byte payload", n, len(pv.routes), len(data))
		}
		if enc := appendViewPayload(nil, pv); !bytes.Equal(enc, data) {
			t.Fatalf("accepted a non-canonical view: %x re-encodes to %x", data, enc)
		}
	})
}
