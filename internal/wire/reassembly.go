package wire

// BufferPool supplies and recycles payload buffers for OpenFrame and the
// reassembler. It is satisfied by *ringbuf.BufPool; defining the interface
// here keeps wire free of dependencies while letting the data path plug in
// its free lists.
type BufferPool interface {
	// Get returns a buffer of length n with capacity at least n and
	// undefined contents.
	Get(n int) []byte
	// Put recycles a buffer previously returned by Get.
	Put(b []byte)
}

// flowState is one flow's in-progress frame. Entries persist across frames so
// the steady-state map is never written, only read.
type flowState struct {
	hdr    Header
	buf    []byte // payload assembled so far, at offset 0
	active bool
}

// Reassembler implements software RPC reassembly (§4.7): the memory
// interconnect's MTU is a single cache line, so frames arrive as line-sized
// chunks and multi-line RPCs are stitched back together on the CPU before
// delivery. Lines of one RPC arrive in order within a flow (the interconnect
// preserves per-flow ordering); interleaving across flows is handled by
// keeping one assembly buffer per flow.
//
// The reassembler strips headers as it goes: delivered messages carry a
// payload-only buffer starting at offset 0, owned by the caller. With a pool,
// payload buffers come from it and the caller repays the loan by calling
// pool.Put once it is done with Message.Payload (buffers obtained any other
// way are also accepted by Put, so callers may recycle unconditionally).
type Reassembler struct {
	pool    BufferPool
	pending map[uint16]*flowState // flowID -> assembly state
}

// NewReassemblerPool returns an empty reassembler drawing payload buffers
// from pool. A nil pool allocates them from the heap.
func NewReassemblerPool(pool BufferPool) *Reassembler {
	return &Reassembler{pool: pool, pending: make(map[uint16]*flowState)}
}

func (r *Reassembler) getBuf(n int) []byte {
	if r.pool != nil {
		return r.pool.Get(n)
	}
	return make([]byte, n)
}

// AddLine feeds one 64-byte line for a flow. When the line completes an RPC
// frame, the decoded message and true are returned; otherwise the line is
// buffered. The error reports malformed first lines. The returned payload is
// an owned buffer (it does not alias line or internal state).
func (r *Reassembler) AddLine(flowID uint16, line []byte) (Message, bool, error) {
	if len(line) != CacheLineSize {
		return Message{}, false, ErrShortBuffer
	}
	st := r.pending[flowID]
	if st == nil {
		st = &flowState{}
		r.pending[flowID] = st
	}
	if !st.active {
		hdr, err := ParseHeader(line)
		if err != nil {
			return Message{}, false, err
		}
		need := int(hdr.Len)
		if need <= FirstLinePayload {
			// Single-line frame: complete immediately.
			m := Message{Header: hdr}
			if need > 0 {
				m.Payload = r.getBuf(need)
				copy(m.Payload, line[HeaderSize:HeaderSize+need])
			}
			return m, true, nil
		}
		st.hdr = hdr
		st.buf = append(r.getBuf(need)[:0], line[HeaderSize:]...)
		st.active = true
		return Message{}, false, nil
	}
	take := int(st.hdr.Len) - len(st.buf)
	if take > CacheLineSize {
		take = CacheLineSize
	}
	st.buf = append(st.buf, line[:take]...)
	if len(st.buf) < int(st.hdr.Len) {
		return Message{}, false, nil
	}
	m := Message{Header: st.hdr, Payload: st.buf}
	st.buf = nil
	st.active = false
	return m, true, nil
}
