package wire

import (
	"bytes"
	"testing"
)

// countingPool is a BufferPool that tracks loans for the ownership tests.
// Like ringbuf.BufPool, Put of a nil or zero-capacity buffer repays nothing.
type countingPool struct {
	gets, puts int
	last       []byte
}

func (p *countingPool) Get(n int) []byte {
	p.gets++
	p.last = make([]byte, n)
	return p.last
}

func (p *countingPool) Put(b []byte) {
	if cap(b) > 0 {
		p.puts++
	}
}

func marshalFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	m := &Message{Header: Header{Kind: KindRequest, RPCID: 7}, Payload: payload}
	frame, err := MarshalAppend(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func feedFrame(t *testing.T, r *Reassembler, flow uint16, frame []byte) Message {
	t.Helper()
	var (
		m    Message
		done bool
		err  error
	)
	for off := 0; off < len(frame); off += CacheLineSize {
		m, done, err = r.AddLine(flow, frame[off:off+CacheLineSize])
		if err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("frame did not complete")
	}
	return m
}

// TestReassemblerPooledPayloads checks the ownership contract: payload
// buffers are drawn from the pool, delivered at offset zero (so they can be
// recycled directly), and do not alias the fed lines.
func TestReassemblerPooledPayloads(t *testing.T) {
	pool := &countingPool{}
	r := NewReassemblerPool(pool)
	payload := bytes.Repeat([]byte("x"), 150) // multi-line
	frame := marshalFrame(t, payload)
	m := feedFrame(t, r, 3, frame)
	if !bytes.Equal(m.Payload, payload) {
		t.Fatal("payload mismatch")
	}
	if pool.gets != 1 {
		t.Fatalf("pool.Get called %d times, want 1", pool.gets)
	}
	if &m.Payload[0] != &pool.last[0] {
		t.Fatal("delivered payload is not the pooled buffer")
	}
	if cap(m.Payload) < len(m.Payload) || len(pool.last) != len(payload) {
		t.Fatal("pooled buffer sized wrong")
	}
	// The delivered buffer must not alias the frame: mutating the frame
	// after delivery must not corrupt the payload.
	for i := range frame {
		frame[i] = 0xFF
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Fatal("payload aliases the fed frame")
	}
	if r.PendingFlows() != 0 {
		t.Fatalf("PendingFlows = %d after completion", r.PendingFlows())
	}
}

// TestReassemblerSingleLinePooled covers the one-line fast path and the
// zero-length payload (no pool loan at all).
func TestReassemblerSingleLinePooled(t *testing.T) {
	pool := &countingPool{}
	r := NewReassemblerPool(pool)
	m := feedFrame(t, r, 0, marshalFrame(t, []byte("hi")))
	if string(m.Payload) != "hi" || pool.gets != 1 {
		t.Fatalf("payload %q gets %d", m.Payload, pool.gets)
	}
	m = feedFrame(t, r, 0, marshalFrame(t, nil))
	if len(m.Payload) != 0 {
		t.Fatal("zero-payload frame delivered bytes")
	}
	if pool.gets != 1 {
		t.Fatal("zero-payload frame should not borrow a buffer")
	}
}

// TestReassemblerStateReuse checks that back-to-back multi-line frames on
// one flow reuse the persistent flow state and stay correct.
func TestReassemblerStateReuse(t *testing.T) {
	r := NewReassembler()
	for i := 0; i < 5; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		m := feedFrame(t, r, 9, marshalFrame(t, payload))
		if !bytes.Equal(m.Payload, payload) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

func TestParseHeaderValidates(t *testing.T) {
	frame := marshalFrame(t, []byte("ping"))
	h, err := ParseHeader(frame)
	if err != nil || h.Kind != KindRequest || h.RPCID != 7 || h.Len != 4 {
		t.Fatalf("ParseHeader = %+v, %v", h, err)
	}
	if _, err := ParseHeader(frame[:HeaderSize-1]); err != ErrShortBuffer {
		t.Fatalf("short: %v", err)
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 0
	if _, err := ParseHeader(bad); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
}
