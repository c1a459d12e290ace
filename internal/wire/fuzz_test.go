package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the frame decoder: it must never
// panic, and anything it accepts must re-encode to an equivalent frame.
func FuzzUnmarshal(f *testing.F) {
	good, _ := MarshalAppend(nil, &Message{
		Header:  Header{Kind: KindRequest, ConnID: 1, RPCID: 2, FlowID: 3, FnID: 4, Budget: 250_000},
		Payload: []byte("seed"),
	})
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, CacheLineSize))
	f.Add(bytes.Repeat([]byte{0x00}, 3*CacheLineSize))
	// A v1-magic frame: the old 32-byte header layout must be rejected.
	v1 := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(v1, 0xDA66)
	f.Add(v1)
	// A frame truncated inside the widened header extension.
	f.Add(append([]byte(nil), good[:HeaderSize-4]...))
	// A congestion-marked frame carrying an occupancy hint.
	marked := append([]byte(nil), good...)
	StampCongestion(marked, 211)
	f.Add(marked)
	// A connection-control frame (client close propagation) and a frame
	// carrying the connection-cache-miss mark.
	disc, _ := MarshalAppend(nil, &Message{
		Header: Header{Kind: KindDisconnect, ConnID: 7, FlowID: 1, SrcAddr: 8, DstAddr: 9},
	})
	f.Add(disc)
	missed := append([]byte(nil), good...)
	StampConnMiss(missed)
	f.Add(missed)
	// A checksum byte overwritten with 0x00 is rejected like any mismatch.
	zeroed := append([]byte(nil), good...)
	zeroed[37] = 0
	if _, _, err := Unmarshal(zeroed); err != ErrBadChecksum {
		f.Fatalf("zeroed checksum seed: Unmarshal = %v, want ErrBadChecksum", err)
	}
	f.Add(zeroed)
	// Corrupted-header seeds: a covered-bit flip and a clobbered checksum
	// byte must both be rejected with ErrBadChecksum, never dispatched.
	flipped := append([]byte(nil), good...)
	FlipCoveredBit(flipped, 77)
	f.Add(flipped)
	badSum := append([]byte(nil), good...)
	badSum[37] ^= 0x5A
	f.Add(badSum)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, consumed, err := Unmarshal(data)
		if err != nil {
			return
		}
		if consumed <= 0 || consumed > len(data) || consumed%CacheLineSize != 0 {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		// Round-trip: a successfully decoded frame re-encodes and decodes
		// to the same header and payload.
		m.Len = 0 // recomputed by MarshalAppend
		re, err := MarshalAppend(nil, &m)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		m2, _, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Kind != m.Kind || m2.Flags != m.Flags || m2.ConnID != m.ConnID ||
			m2.RPCID != m.RPCID || m2.FlowID != m.FlowID || m2.FnID != m.FnID ||
			m2.Budget != m.Budget || m2.Occupancy != m.Occupancy ||
			!bytes.Equal(m2.Payload, m.Payload) {
			t.Fatal("round trip diverged")
		}
	})
}

// FuzzReassembler feeds arbitrary line sequences: no panics, and every
// delivered message must be internally consistent.
func FuzzReassembler(f *testing.F) {
	frame, _ := MarshalAppend(nil, &Message{
		Header:  Header{Kind: KindResponse, ConnID: 9},
		Payload: make([]byte, 200),
	})
	f.Add(frame, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, flow uint16) {
		r := NewReassembler()
		for off := 0; off+CacheLineSize <= len(data); off += CacheLineSize {
			m, done, err := r.AddLine(flow, data[off:off+CacheLineSize])
			if err != nil {
				return // malformed first line resets the flow; fine
			}
			if done && int(m.Len) != len(m.Payload) {
				t.Fatalf("delivered message inconsistent: len=%d payload=%d", m.Len, len(m.Payload))
			}
		}
	})
}

// FuzzOpenFrame checks the whole-frame open against the line-at-a-time
// reassembler: no panics; an accepted frame holds all of its message's
// lines and its payload is the bytes after the header; the reassembler,
// fed the frame's lines, completes a message exactly when OpenFrame accepts
// the frame, with the same header and payload; and no path leaves a pool
// loan outstanding.
func FuzzOpenFrame(f *testing.F) {
	frame := func(n int) []byte {
		b, _ := MarshalAppend(nil, &Message{
			Header:  Header{Kind: KindResponse, ConnID: 9, RPCID: 3, FlowID: 2, Budget: 100},
			Payload: bytes.Repeat([]byte{0xA5}, n),
		})
		return b
	}
	one, two, big := frame(FirstLinePayload), frame(CacheLineSize), frame(4096)
	f.Add(one) // 1 line
	f.Add(two) // 2 lines
	f.Add(big) // 65 lines
	badSum := append([]byte(nil), two...)
	badSum[checksumOffset] ^= 0x5A
	f.Add(badSum)
	f.Add(big[:len(big)-CacheLineSize]) // truncated by one line
	f.Add(append(append([]byte(nil), one...), make([]byte, CacheLineSize)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		pool := &countingPool{}
		m, err := OpenFrame(data, pool)
		if err != nil {
			if m.Payload != nil || pool.gets != 0 {
				t.Fatalf("error %v took a loan: payload %d bytes, %d gets", err, len(m.Payload), pool.gets)
			}
		} else {
			if LinesFor(int(m.Len))*CacheLineSize > len(data) {
				t.Fatalf("accepted %d B frame too short for a %d B payload", len(data), m.Len)
			}
			if !bytes.Equal(m.Payload, data[HeaderSize:HeaderSize+int(m.Len)]) {
				t.Fatal("payload is not the bytes after the header")
			}
		}

		r := NewReassembler()
		var (
			want Message
			done bool
		)
		for off := 0; !done && off+CacheLineSize <= len(data); off += CacheLineSize {
			var lerr error
			want, done, lerr = r.AddLine(0, data[off:off+CacheLineSize])
			if lerr != nil {
				break
			}
		}
		if done != (err == nil) {
			t.Fatalf("reassembler completed=%v, OpenFrame err=%v", done, err)
		}
		if done && (want.Header != m.Header || !bytes.Equal(want.Payload, m.Payload)) {
			t.Fatalf("OpenFrame %+v differs from reassembler %+v", m.Header, want.Header)
		}

		pool.Put(m.Payload)
		if pool.gets != pool.puts {
			t.Fatalf("pool loans unbalanced: gets=%d puts=%d", pool.gets, pool.puts)
		}
	})
}

// FuzzDecoder drives the field decoder with arbitrary payloads: it must be
// panic-free and terminate.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder(nil)
	e.Int32(-1)
	e.String16("x")
	e.Bytes16([]byte{1, 2})
	f.Add(e.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for d.Err() == nil && d.off < len(d.buf) {
			d.Uint32()
			d.Bytes16()
			d.Bool()
		}
	})
}
