package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func sampleMessage(payloadLen int) *Message {
	p := make([]byte, payloadLen)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return &Message{
		Header: Header{
			Kind:      KindRequest,
			Flags:     3,
			ConnID:    42,
			RPCID:     1<<40 + 17,
			FlowID:    5,
			FnID:      2,
			SrcAddr:   0x0A000001,
			DstAddr:   0x0A000002,
			Budget:    1_500_000, // 1.5s in µs
			Occupancy: 37,
		},
		Payload: p,
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 96, 100, 1000, MaxPayload} {
		m := sampleMessage(n)
		buf, err := MarshalAppend(nil, m)
		if err != nil {
			t.Fatalf("marshal %d: %v", n, err)
		}
		if len(buf)%CacheLineSize != 0 {
			t.Fatalf("frame size %d not line-aligned", len(buf))
		}
		if len(buf) != m.WireSize() {
			t.Fatalf("frame size %d != WireSize %d", len(buf), m.WireSize())
		}
		got, consumed, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("unmarshal %d: %v", n, err)
		}
		if consumed != len(buf) {
			t.Fatalf("consumed %d, want %d", consumed, len(buf))
		}
		if got.Kind != m.Kind || got.ConnID != m.ConnID || got.RPCID != m.RPCID ||
			got.FlowID != m.FlowID || got.FnID != m.FnID || got.Flags != m.Flags ||
			got.SrcAddr != m.SrcAddr || got.DstAddr != m.DstAddr || got.Budget != m.Budget ||
			got.Occupancy != m.Occupancy {
			t.Fatalf("header mismatch: got %+v want %+v", got.Header, m.Header)
		}
		if !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("payload mismatch at len %d", n)
		}
	}
}

func TestLinesFor(t *testing.T) {
	cases := []struct {
		payload, lines int
	}{
		{0, 1}, {1, 1}, {FirstLinePayload, 1}, {FirstLinePayload + 1, 2},
		{FirstLinePayload + CacheLineSize, 2}, {FirstLinePayload + CacheLineSize + 1, 3},
		{512, 9},
	}
	for _, c := range cases {
		if got := LinesFor(c.payload); got != c.lines {
			t.Errorf("LinesFor(%d) = %d, want %d", c.payload, got, c.lines)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := Unmarshal(make([]byte, 10)); err != ErrShortBuffer {
		t.Errorf("short buffer: %v", err)
	}
	bad := make([]byte, CacheLineSize)
	if _, _, err := Unmarshal(bad); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	m := sampleMessage(0)
	buf, _ := MarshalAppend(nil, m)
	buf[2] = 99
	if _, _, err := Unmarshal(buf); err != ErrBadKind {
		t.Errorf("bad kind: %v", err)
	}
	// Multi-line frame truncated to its first line.
	m2 := sampleMessage(200)
	buf2, _ := MarshalAppend(nil, m2)
	if _, _, err := Unmarshal(buf2[:CacheLineSize]); err != ErrShortBuffer {
		t.Errorf("truncated multi-line: %v", err)
	}
}

// TestHeaderV2Layout pins the v2 framing: budget boundary values survive the
// round trip, frames truncated inside the widened header are rejected, and
// old-magic (v1 layout) frames fail cleanly with ErrBadMagic.
func TestHeaderV2Layout(t *testing.T) {
	for _, budget := range []uint32{0, 1, 1000, MaxBudget - 1, MaxBudget} {
		m := sampleMessage(8)
		m.Budget = budget
		buf, err := MarshalAppend(nil, m)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		got, err := ParseHeader(buf)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if got.Budget != budget {
			t.Fatalf("budget %d round-tripped to %d", budget, got.Budget)
		}
	}

	// Truncation inside the header extension (bytes 32..39) must be rejected.
	m := sampleMessage(4)
	buf, _ := MarshalAppend(nil, m)
	for _, n := range []int{HeaderSize - 8, HeaderSize - 1} {
		if _, err := ParseHeader(buf[:n]); err != ErrShortBuffer {
			t.Errorf("ParseHeader(%d bytes) = %v, want ErrShortBuffer", n, err)
		}
	}

	// A v1-magic frame is an old layout; it must be rejected, not misparsed.
	old := make([]byte, CacheLineSize)
	copy(old, buf)
	binary.LittleEndian.PutUint16(old, 0xDA66)
	if _, err := ParseHeader(old); err != ErrBadMagic {
		t.Errorf("v1 magic = %v, want ErrBadMagic", err)
	}
	if _, _, err := Unmarshal(old); err != ErrBadMagic {
		t.Errorf("Unmarshal v1 magic = %v, want ErrBadMagic", err)
	}
}

// TestCongestionFieldLayout pins the congestion extension of the v2 header:
// the mark bit and occupancy hint round-trip, the hint lives in what used to
// be a reserved-zero byte (so frames encoded before the field existed decode
// as unmarked with no hint, without a magic bump), and StampCongestion
// patches marshalled frames in place.
func TestCongestionFieldLayout(t *testing.T) {
	m := sampleMessage(8)
	m.Flags = FlagCongested | 3
	m.Occupancy = 200
	buf, err := MarshalAppend(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if buf[36] != 200 {
		t.Fatalf("occupancy byte at offset 36 = %d, want 200", buf[36])
	}
	got, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Congested() || got.Occupancy != 200 || got.Flags&3 != 3 {
		t.Fatalf("congestion fields lost: %+v", got)
	}

	// An unmarked frame leaves the occupancy byte and the reserved tail zero
	// (byte 37 now carries the header checksum): it must decode as unmarked
	// with a zero hint.
	old := sampleMessage(8)
	old.Flags = 3
	old.Occupancy = 0
	obuf, _ := MarshalAppend(nil, old)
	for _, i := range []int{36, 38, 39} {
		if obuf[i] != 0 {
			t.Fatalf("byte %d of an unmarked frame = %d, want 0", i, obuf[i])
		}
	}
	if obuf[37] == 0 {
		t.Fatal("checksum byte 37 not populated")
	}
	oh, err := ParseHeader(obuf)
	if err != nil {
		t.Fatal(err)
	}
	if oh.Congested() || oh.Occupancy != 0 {
		t.Fatalf("unmarked frame decoded congested: %+v", oh)
	}

	// StampCongestion marks the encoded frame in place; the decode sees it.
	StampCongestion(obuf, 190)
	sh, err := ParseHeader(obuf)
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Congested() || sh.Occupancy != 190 {
		t.Fatalf("stamp not visible: %+v", sh)
	}
	if sh.Flags&3 != 3 {
		t.Fatalf("stamp clobbered other flags: %#x", sh.Flags)
	}
	// Too-short frames are left untouched rather than sliced out of range.
	short := []byte{1, 2, 3}
	StampCongestion(short, 99)
	if short[0] != 1 || short[1] != 2 || short[2] != 3 {
		t.Fatal("short frame mutated")
	}
}

// TestConnMissFieldLayout pins the connection-cache-miss flag bit: it
// round-trips, keeps clear of the congestion and stack-level bits, and
// StampConnMiss patches marshalled frames in place (mirroring
// StampCongestion).
func TestConnMissFieldLayout(t *testing.T) {
	m := sampleMessage(8)
	m.Flags = FlagConnMiss | 3
	buf, err := MarshalAppend(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ConnMissed() || got.Congested() || got.Flags&3 != 3 {
		t.Fatalf("conn-miss fields lost: %+v", got)
	}

	// Stamp an unmarked frame in place; other flags survive, and the bit
	// composes with a congestion stamp on the same frame.
	plain := sampleMessage(8)
	plain.Flags = 3
	pbuf, _ := MarshalAppend(nil, plain)
	StampConnMiss(pbuf)
	StampCongestion(pbuf, 150)
	sh, err := ParseHeader(pbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !sh.ConnMissed() || !sh.Congested() || sh.Occupancy != 150 || sh.Flags&3 != 3 {
		t.Fatalf("stamps diverged: %+v", sh)
	}
	// Too-short frames are left untouched rather than sliced out of range.
	short := []byte{1, 2, 3}
	StampConnMiss(short)
	if short[0] != 1 || short[1] != 2 || short[2] != 3 {
		t.Fatal("short frame mutated")
	}
}

// TestDisconnectRoundTrip pins the connection-control frame the client emits
// on CloseConnection: a payload-less KindDisconnect carrying the connection
// identity, surviving a marshal/decode round trip.
func TestDisconnectRoundTrip(t *testing.T) {
	m := &Message{Header: Header{
		Kind: KindDisconnect, ConnID: 0x01020304,
		FlowID: 2, SrcAddr: 0x0A000001, DstAddr: 0x0A000002,
	}}
	buf, err := MarshalAppend(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != CacheLineSize {
		t.Fatalf("disconnect frame = %d bytes, want one cache line", len(buf))
	}
	got, n, err := Unmarshal(buf)
	if err != nil || n != CacheLineSize {
		t.Fatalf("unmarshal: n=%d err=%v", n, err)
	}
	if got.Kind != KindDisconnect || got.ConnID != m.ConnID ||
		got.SrcAddr != m.SrcAddr || got.DstAddr != m.DstAddr ||
		got.FlowID != m.FlowID || len(got.Payload) != 0 {
		t.Fatalf("disconnect round trip diverged: %+v", got.Header)
	}
	// The same frame under the v1 magic must be rejected, not misparsed.
	old := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint16(old, 0xDA66)
	if _, err := ParseHeader(old); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("v1 disconnect frame: %v, want ErrBadMagic", err)
	}
}

// TestChecksumFieldLayout pins the header-checksum extension: the CRC lives
// in reserved byte 37, a zeroed checksum byte is a mismatch like any other
// (no stored value bypasses verification), corruption of any covered header
// bit is rejected with ErrBadChecksum, and in-flight stamps never invalidate
// a frame.
func TestChecksumFieldLayout(t *testing.T) {
	m := sampleMessage(8)
	buf, err := MarshalAppend(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if buf[37] != headerChecksum(buf) || buf[37] == 0 {
		t.Fatalf("checksum byte 37 = %#x: not the header CRC, or a zero CRC that would make the zeroing case below vacuous", buf[37])
	}
	if !VerifyChecksum(buf) {
		t.Fatal("fresh frame fails verification")
	}
	if _, err := ParseHeader(buf); err != nil {
		t.Fatal(err)
	}

	// A checksum byte overwritten with 0x00 is corruption, not an opt-out:
	// it used to skip verification in both entry points.
	zeroed := append([]byte(nil), buf...)
	zeroed[37] = 0
	if VerifyChecksum(zeroed) {
		t.Fatal("zeroed checksum byte passed VerifyChecksum")
	}
	if _, err := ParseHeader(zeroed); err != ErrBadChecksum {
		t.Fatalf("zeroed checksum byte: ParseHeader = %v, want ErrBadChecksum", err)
	}
	if _, _, err := Unmarshal(zeroed); err != ErrBadChecksum {
		t.Fatalf("zeroed checksum byte: Unmarshal = %v, want ErrBadChecksum", err)
	}

	// Corrupting a covered field is caught.
	for _, off := range []int{8, 20, 24, 32, 38} {
		bad := append([]byte(nil), buf...)
		bad[off] ^= 0x10
		if VerifyChecksum(bad) {
			t.Fatalf("corruption at byte %d passed verification", off)
		}
		if _, err := ParseHeader(bad); err != ErrBadChecksum {
			t.Fatalf("corruption at byte %d: ParseHeader = %v, want ErrBadChecksum", off, err)
		}
		if _, _, err := Unmarshal(bad); err != ErrBadChecksum {
			t.Fatalf("corruption at byte %d: Unmarshal = %v, want ErrBadChecksum", off, err)
		}
	}

	// Stamps patch excluded bits/bytes: they must never invalidate a frame.
	stamped := append([]byte(nil), buf...)
	StampCongestion(stamped, 210)
	StampConnMiss(stamped)
	if !VerifyChecksum(stamped) {
		t.Fatal("in-flight stamps invalidated the checksum")
	}
	if _, err := ParseHeader(stamped); err != nil {
		t.Fatalf("stamped frame: %v", err)
	}

	// Short frames fail verification rather than slicing out of range.
	if VerifyChecksum(buf[:HeaderSize-1]) {
		t.Fatal("short frame verified")
	}
}

// TestFlipCoveredBit pins the CorruptBit mutation contract: every offset
// (wrapped modulo the covered region) flips exactly one covered bit, the
// mutation is always caught by verification for these frames, and a second
// flip at the same offset restores the frame.
func TestFlipCoveredBit(t *testing.T) {
	m := sampleMessage(8)
	buf, _ := MarshalAppend(nil, m)
	const covered = 3*8 + 6 + 32*8 + 2*8
	for bit := uint32(0); bit < covered+5; bit++ {
		frame := append([]byte(nil), buf...)
		FlipCoveredBit(frame, bit)
		if bytes.Equal(frame, buf) {
			t.Fatalf("bit %d: no mutation", bit)
		}
		if frame[36] != buf[36] || frame[37] != buf[37] {
			t.Fatalf("bit %d mutated an excluded byte", bit)
		}
		if d := frame[3] ^ buf[3]; d&(FlagCongested|FlagConnMiss) != 0 {
			t.Fatalf("bit %d mutated a stamped flag bit", bit)
		}
		if VerifyChecksum(frame) {
			t.Fatalf("bit %d: single-bit corruption passed verification", bit)
		}
		FlipCoveredBit(frame, bit)
		if !bytes.Equal(frame, buf) {
			t.Fatalf("bit %d: double flip did not restore the frame", bit)
		}
	}
	// Too-short frames are left untouched.
	short := []byte{1, 2, 3}
	FlipCoveredBit(short, 0)
	if short[0] != 1 || short[1] != 2 || short[2] != 3 {
		t.Fatal("short frame mutated")
	}
}

func TestSubBudgetSaturates(t *testing.T) {
	cases := []struct {
		budget  uint32
		elapsed uint64
		want    uint32
		expired bool
	}{
		{0, 0, 0, false},
		{0, 1 << 40, 0, false}, // no deadline never expires
		{100, 0, 100, false},
		{100, 40, 60, false},
		{100, 99, 1, false},
		{100, 100, 0, true},
		{100, 101, 0, true}, // would wrap unsaturated: 100-101 = ~71min
		{100, 1 << 40, 0, true},
		{MaxBudget, 1, MaxBudget - 1, false},
		{MaxBudget, uint64(MaxBudget), 0, true},
	}
	for _, c := range cases {
		rem, exp := SubBudget(c.budget, c.elapsed)
		if rem != c.want || exp != c.expired {
			t.Errorf("SubBudget(%d, %d) = (%d, %v), want (%d, %v)",
				c.budget, c.elapsed, rem, exp, c.want, c.expired)
		}
	}
	// A live budget re-anchors to a live budget: remaining is never 0 (which
	// would mean "no deadline" on the wire) unless expired says to shed.
	for b := uint32(1); b < 2000; b += 7 {
		for e := uint64(0); e < uint64(b); e += 3 {
			rem, exp := SubBudget(b, e)
			if exp || rem == 0 {
				t.Fatalf("SubBudget(%d, %d) = (%d, %v): live budget lost its deadline", b, e, rem, exp)
			}
		}
	}
}

func TestMarshalRejectsOversized(t *testing.T) {
	m := sampleMessage(MaxPayload + 1)
	if _, err := MarshalAppend(nil, m); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestMarshalRejectsLenMismatch(t *testing.T) {
	m := sampleMessage(8)
	m.Len = 5
	if _, err := MarshalAppend(nil, m); err == nil {
		t.Fatal("len mismatch accepted")
	}
}

func TestMarshalAppendStacks(t *testing.T) {
	a := sampleMessage(10)
	b := sampleMessage(100)
	buf, _ := MarshalAppend(nil, a)
	buf, _ = MarshalAppend(buf, b)
	m1, c1, err := Unmarshal(buf)
	if err != nil || len(m1.Payload) != 10 {
		t.Fatalf("first frame: %v", err)
	}
	m2, _, err := Unmarshal(buf[c1:])
	if err != nil || len(m2.Payload) != 100 {
		t.Fatalf("second frame: %v", err)
	}
}

// TestMarshalAppendDirtyBuffer pins the single-shot marshal against pooled
// buffers, which arrive with stale contents: the reserved header bytes and
// the tail padding must come out zero whatever the spare capacity held, and
// marshalling into enough capacity must not allocate.
func TestMarshalAppendDirtyBuffer(t *testing.T) {
	for _, n := range []int{0, FirstLinePayload, FirstLinePayload + 1, 64, 4096} {
		m := sampleMessage(n)
		want, err := MarshalAppend(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		dirty := bytes.Repeat([]byte{0xFF}, len(want))
		got, err := MarshalAppend(dirty[:0], m)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("len %d: marshal into a dirty buffer differs from a clean one (err %v)", n, err)
		}
		prefix := []byte("prefix")
		dst := append(bytes.Repeat([]byte{0xFF}, len(prefix)+len(want)+CacheLineSize)[:0], prefix...)
		got, err = MarshalAppend(dst, m)
		if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("len %d: marshal onto a non-empty dst differs (err %v)", n, err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			_, _ = MarshalAppend(dirty[:0], m)
		}); allocs != 0 {
			t.Fatalf("len %d: marshal with enough capacity allocates %.1f times", n, allocs)
		}
	}
}

// Property: round-trip preserves header and payload for arbitrary content.
func TestRoundTripProperty(t *testing.T) {
	f := func(payload []byte, connID uint32, rpcID uint64, flowID, fnID uint16, budget uint32, flags, occ uint8) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		m := &Message{
			Header: Header{Kind: KindResponse, Flags: flags, ConnID: connID, RPCID: rpcID,
				FlowID: flowID, FnID: fnID, Budget: budget, Occupancy: occ},
			Payload: payload,
		}
		buf, err := MarshalAppend(nil, m)
		if err != nil {
			return false
		}
		got, _, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return got.ConnID == connID && got.RPCID == rpcID && got.FlowID == flowID &&
			got.FnID == fnID && got.Budget == budget && got.Flags == flags &&
			got.Occupancy == occ && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblerSingleLine(t *testing.T) {
	r := NewReassembler()
	m := sampleMessage(16)
	buf, _ := MarshalAppend(nil, m)
	got, done, err := r.AddLine(m.FlowID, buf)
	if err != nil || !done {
		t.Fatalf("single line not delivered: done=%v err=%v", done, err)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("payload mismatch")
	}
	if r.PendingFlows() != 0 {
		t.Fatal("residual pending state")
	}
}

func TestReassemblerMultiLine(t *testing.T) {
	r := NewReassembler()
	m := sampleMessage(300) // 1 + ceil((300-FirstLinePayload)/64) = 6 lines
	buf, _ := MarshalAppend(nil, m)
	lines := len(buf) / CacheLineSize
	for i := 0; i < lines-1; i++ {
		_, done, err := r.AddLine(m.FlowID, buf[i*CacheLineSize:(i+1)*CacheLineSize])
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("frame delivered early at line %d/%d", i+1, lines)
		}
	}
	got, done, err := r.AddLine(m.FlowID, buf[(lines-1)*CacheLineSize:])
	if err != nil || !done {
		t.Fatalf("final line: done=%v err=%v", done, err)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("reassembled payload mismatch")
	}
}

func TestReassemblerInterleavedFlows(t *testing.T) {
	r := NewReassembler()
	a := sampleMessage(200)
	a.FlowID = 1
	b := sampleMessage(200)
	b.FlowID = 2
	for i := range b.Payload {
		b.Payload[i] ^= 0xFF
	}
	bufA, _ := MarshalAppend(nil, a)
	bufB, _ := MarshalAppend(nil, b)
	linesA := len(bufA) / CacheLineSize
	var gotA, gotB *Message
	for i := 0; i < linesA; i++ {
		if m, done, err := r.AddLine(1, bufA[i*CacheLineSize:(i+1)*CacheLineSize]); err != nil {
			t.Fatal(err)
		} else if done {
			gotA = &m
		}
		if m, done, err := r.AddLine(2, bufB[i*CacheLineSize:(i+1)*CacheLineSize]); err != nil {
			t.Fatal(err)
		} else if done {
			gotB = &m
		}
	}
	if gotA == nil || gotB == nil {
		t.Fatal("interleaved frames not delivered")
	}
	if !bytes.Equal(gotA.Payload, a.Payload) || !bytes.Equal(gotB.Payload, b.Payload) {
		t.Fatal("cross-flow payload corruption")
	}
}

func TestReassemblerBadLine(t *testing.T) {
	r := NewReassembler()
	if _, _, err := r.AddLine(1, make([]byte, 5)); err == nil {
		t.Fatal("short line accepted")
	}
	junk := make([]byte, CacheLineSize)
	if _, _, err := r.AddLine(1, junk); err == nil {
		t.Fatal("garbage first line accepted")
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.Int32(-5)
	e.Uint32(7)
	e.Int64(-1 << 50)
	e.Uint64(1 << 60)
	e.Bool(true)
	e.Bool(false)
	e.CharArray([]byte("key"), 8)
	e.Bytes16([]byte{1, 2, 3})
	e.String16("hello")

	d := NewDecoder(e.Bytes())
	if d.Int32() != -5 || d.Uint32() != 7 || d.Int64() != -1<<50 || d.Uint64() != 1<<60 {
		t.Fatal("scalar mismatch")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool mismatch")
	}
	ca := d.CharArray(8)
	if !bytes.Equal(ca, []byte{'k', 'e', 'y', 0, 0, 0, 0, 0}) {
		t.Fatalf("char array = %v", ca)
	}
	if !bytes.Equal(d.Bytes16(), []byte{1, 2, 3}) {
		t.Fatal("bytes16 mismatch")
	}
	if d.String16() != "hello" {
		t.Fatal("string16 mismatch")
	}
	if d.Err() != nil || d.off != len(d.buf) {
		t.Fatalf("err=%v remaining=%d", d.Err(), len(d.buf)-d.off)
	}
}

func TestDecoderShort(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if d.Uint32() != 0 || d.Err() != ErrDecodeShort {
		t.Fatal("short decode not flagged")
	}
	// Subsequent reads stay zero and keep the error.
	if d.Uint64() != 0 || d.Err() != ErrDecodeShort {
		t.Fatal("sticky error lost")
	}
}

// Property: encoder/decoder round-trip arbitrary tuples.
func TestCodecProperty(t *testing.T) {
	f := func(a int32, b uint64, s string, raw []byte) bool {
		if len(s) > 0xFFFF {
			s = s[:0xFFFF]
		}
		if len(raw) > 0xFFFF {
			raw = raw[:0xFFFF]
		}
		e := NewEncoder(nil)
		e.Int32(a)
		e.Uint64(b)
		e.String16(s)
		e.Bytes16(raw)
		d := NewDecoder(e.Bytes())
		ok := d.Int32() == a && d.Uint64() == b && d.String16() == s && bytes.Equal(d.Bytes16(), raw)
		return ok && d.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
