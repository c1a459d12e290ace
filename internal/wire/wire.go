// Package wire defines Dagger's RPC wire format. Following the paper's
// hardware design, messages are framed in 64-byte cache-line units: the
// header occupies the front of the first line and the payload fills the rest,
// spilling into additional lines for RPCs larger than one line. The paper
// reassembles those lines in software (§4.7) because its interconnect moves
// one line at a time; here every ring entry is a whole frame, which
// OpenFrame decodes in one pass.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// CacheLineSize is the transfer MTU of the memory interconnect: one CPU
// cache line.
const CacheLineSize = 64

// HeaderSize is the encoded size of a message header, at the front of the
// first cache line. Header v2 grew from 32 to 40 bytes to carry the per-RPC
// deadline budget; byte 36 has since been claimed from the reserved tail for
// the congestion occupancy hint and byte 37 for the header checksum (bytes
// 38-39 remain reserved).
const HeaderSize = 40

// FirstLinePayload is the payload capacity of the first cache line.
const FirstLinePayload = CacheLineSize - HeaderSize

// MaxPayload bounds a single RPC's payload; the paper's microservice RPCs
// range from a few bytes to a few kilobytes.
const MaxPayload = 16 * 1024

// MaxFrameSize is the largest framed message: a MaxPayload message padded to
// whole cache lines. Buffer pools on the data path size their largest class
// to this, so any legal frame fits a pooled buffer.
const MaxFrameSize = (1 + (MaxPayload-FirstLinePayload+CacheLineSize-1)/CacheLineSize) * CacheLineSize

// Magic identifies Dagger frames on the wire. The value was bumped when the
// header grew its budget field so v1 frames are rejected cleanly rather than
// misparsed (the layouts are not compatible).
const Magic uint16 = 0xDA67

// Kind distinguishes message types multiplexed over one symmetric stack
// (the paper: "Request types are distinguished by the request type field").
type Kind uint8

// Message kinds.
const (
	KindRequest Kind = iota + 1
	KindResponse
	KindConnect
	KindConnectAck
	KindDisconnect
)

func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindConnect:
		return "connect"
	case KindConnectAck:
		return "connect-ack"
	case KindDisconnect:
		return "disconnect"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// FlagCongested is the ECN-style congestion-experienced bit in Flags: set by
// a NIC queue when the frame was admitted past the dataplane mark threshold,
// echoed by the server into the response so the client can react. The top
// bit keeps clear of the stack-level flags (error, shed) in the low bits.
const FlagCongested uint8 = 0x80

// FlagConnMiss is the connection-cache-miss bit in Flags: set by a NIC whose
// connection lookup for the frame fell back to the host backing store (§4.2),
// echoed by the server into the response so clients and traces can observe
// working sets that no longer fit the near-memory cache. Like FlagCongested
// it stays clear of the stack-level flags in the low bits.
const FlagConnMiss uint8 = 0x40

// FlagDead is the dead-letter bit in response Flags: set on the synthetic
// response a transport bridge injects when the reliability protocol gave up
// delivering the request (every retransmission exhausted). A client seeing
// it fails the call fast with a peer-dead error instead of burning its full
// timeout. It lives in the stack-level low bits alongside the error and shed
// flags owned by internal/core.
const FlagDead uint8 = 0x04

// stampedFlagsMask covers the Flags bits NIC queues stamp onto frames after
// marshalling (StampCongestion, StampConnMiss). The header checksum masks
// them out — along with the occupancy byte the congestion stamp rewrites —
// so in-flight stamping never invalidates a frame.
const stampedFlagsMask = FlagCongested | FlagConnMiss

// Header is the fixed-size RPC header.
type Header struct {
	Kind      Kind
	Flags     uint8
	ConnID    uint32 // connection identifier (c_id in the paper)
	RPCID     uint64 // per-connection request identifier, echoed in responses
	FlowID    uint16 // NIC flow (maps 1:1 to an RX/TX ring)
	FnID      uint16 // registered remote function
	Len       uint32 // payload length in bytes
	SrcAddr   uint32 // source host address (connection setup and steering)
	DstAddr   uint32 // destination host address
	Budget    uint32 // remaining deadline budget in microseconds; 0 = none
	Occupancy uint8  // congestion occupancy hint (dataplane.OccupancyHint); 0 = none
}

// Congested reports whether the frame carries a congestion mark.
func (h *Header) Congested() bool { return h.Flags&FlagCongested != 0 }

// ConnMissed reports whether the frame carries a connection-cache-miss mark.
func (h *Header) ConnMissed() bool { return h.Flags&FlagConnMiss != 0 }

// MaxBudget is the largest encodable deadline budget (~71.6 minutes). Budgets
// beyond it saturate rather than wrap.
const MaxBudget uint32 = ^uint32(0)

// Message is a complete RPC frame: header plus payload.
type Message struct {
	Header
	Payload []byte
}

// Lines returns the number of cache lines the message occupies on the
// interconnect and the wire.
func (m *Message) Lines() int { return LinesFor(len(m.Payload)) }

// WireSize returns the framed size in bytes (a multiple of CacheLineSize).
func (m *Message) WireSize() int { return m.Lines() * CacheLineSize }

// LinesFor returns the number of cache lines needed for a payload length.
func LinesFor(payloadLen int) int {
	if payloadLen <= FirstLinePayload {
		return 1
	}
	rest := payloadLen - FirstLinePayload
	return 1 + (rest+CacheLineSize-1)/CacheLineSize
}

// Errors returned by Unmarshal.
var (
	ErrShortBuffer = errors.New("wire: buffer shorter than frame")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadKind     = errors.New("wire: bad message kind")
	ErrTooLarge    = errors.New("wire: payload exceeds MaxPayload")
	ErrBadChecksum = errors.New("wire: header checksum mismatch")
)

// MarshalAppend encodes m onto dst, padding to a whole number of cache
// lines, and returns the extended slice. dst grows at most once; its spare
// capacity may hold stale bytes (pooled buffers arrive dirty), so every byte
// of the frame that is not header or payload is written as zero.
func MarshalAppend(dst []byte, m *Message) ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return dst, ErrTooLarge
	}
	if m.Len != 0 && int(m.Len) != len(m.Payload) {
		return dst, fmt.Errorf("wire: header Len %d != payload %d", m.Len, len(m.Payload))
	}
	total := LinesFor(len(m.Payload)) * CacheLineSize
	off := len(dst)
	dst = slices.Grow(dst, total)[:off+total]
	b := dst[off:]
	n := copy(b[HeaderSize:], m.Payload)
	clear(b[HeaderSize+n:])
	binary.LittleEndian.PutUint16(b[0:], Magic)
	b[2] = byte(m.Kind)
	b[3] = m.Flags
	binary.LittleEndian.PutUint32(b[4:], m.ConnID)
	binary.LittleEndian.PutUint64(b[8:], m.RPCID)
	binary.LittleEndian.PutUint16(b[16:], m.FlowID)
	binary.LittleEndian.PutUint16(b[18:], m.FnID)
	binary.LittleEndian.PutUint32(b[20:], uint32(len(m.Payload)))
	binary.LittleEndian.PutUint32(b[24:], m.SrcAddr)
	binary.LittleEndian.PutUint32(b[28:], m.DstAddr)
	binary.LittleEndian.PutUint32(b[32:], m.Budget)
	b[occupancyOffset] = m.Occupancy
	b[38], b[39] = 0, 0 // reserved
	b[checksumOffset] = headerChecksum(b)
	return dst, nil
}

// occupancyOffset is the byte offset of the occupancy hint in an encoded
// header, shared by MarshalAppend, ParseHeader, and StampCongestion.
const occupancyOffset = 36

// checksumOffset is the byte offset of the header checksum, claimed from the
// reserved-zero tail: a CRC-8 over the header with the in-flight-mutable
// bits masked out. Every frame carries one and every decoder checks it; no
// stored value means "unchecked".
const checksumOffset = 37

// crc8Table is the CRC-8 lookup table for the SMBus polynomial x^8+x^2+x+1
// (0x07), the classic one-byte header CRC.
var crc8Table = makeCRC8Table()

func makeCRC8Table() [256]byte {
	var t [256]byte
	for i := range t {
		c := byte(i)
		for b := 0; b < 8; b++ {
			if c&0x80 != 0 {
				c = c<<1 ^ 0x07
			} else {
				c <<= 1
			}
		}
		t[i] = c
	}
	return t
}

// headerChecksum computes the CRC-8 of an encoded header. Coverage excludes
// exactly the bits NIC queues rewrite on already-marshalled frames — the
// congestion/conn-miss flag bits, the occupancy byte, and the checksum byte
// itself — so StampCongestion and StampConnMiss never invalidate a frame.
// Everything else in the header, including the reserved tail, is covered.
func headerChecksum(b []byte) byte {
	c := byte(0xFF)
	for i := 0; i < HeaderSize; i++ {
		v := b[i]
		switch i {
		case 3:
			v &^= stampedFlagsMask
		case occupancyOffset, checksumOffset:
			v = 0
		}
		c = crc8Table[c^v]
	}
	return c
}

// VerifyChecksum reports whether a frame's stored header checksum matches
// the recomputed one. NIC admission uses it to drop corrupted frames before
// they reach a ring; ParseHeader applies the same check, so a corrupt frame
// that slips past a NIC still cannot dispatch.
func VerifyChecksum(frame []byte) bool {
	return len(frame) >= HeaderSize && frame[checksumOffset] == headerChecksum(frame)
}

// coveredHeaderBits is the size of the checksum-covered bit region
// FlipCoveredBit indexes: bytes 0-2, the non-stamped low six bits of the
// flags byte, bytes 4-35, and the reserved tail bytes 38-39. The occupancy
// and checksum bytes and the stamped flag bits are excluded — corruption
// there is outside the checksum contract.
const coveredHeaderBits = 3*8 + 6 + 32*8 + 2*8

// FlipCoveredBit flips one bit of a frame's checksum-covered header region,
// selecting the position from bit modulo coveredHeaderBits. It is the
// CorruptBit fault's mutation: because the flipped bit is always covered,
// CRC-8's single-bit error detection guarantees VerifyChecksum rejects the
// frame afterwards. Frames too short to hold a header are left untouched.
func FlipCoveredBit(frame []byte, bit uint32) {
	if len(frame) < HeaderSize {
		return
	}
	i := int(bit % coveredHeaderBits)
	var byteIdx, bitIdx int
	switch {
	case i < 24: // bytes 0-2
		byteIdx, bitIdx = i/8, i%8
	case i < 30: // flags byte, non-stamped bits 0-5
		byteIdx, bitIdx = 3, i-24
	case i < 30+32*8: // bytes 4-35
		j := i - 30
		byteIdx, bitIdx = 4+j/8, j%8
	default: // reserved tail, bytes 38-39
		j := i - (30 + 32*8)
		byteIdx, bitIdx = 38+j/8, j%8
	}
	frame[byteIdx] ^= 1 << bitIdx
}

// StampCongestion sets the congestion-experienced flag and occupancy hint on
// an already-marshalled frame, in place. NIC queues mark frames as they
// transit — after the sender marshalled them — so the stamp patches the
// encoded header rather than the Message. Frames too short to hold a header
// are left untouched.
func StampCongestion(frame []byte, hint uint8) {
	if len(frame) < HeaderSize {
		return
	}
	frame[3] |= FlagCongested
	frame[occupancyOffset] = hint
}

// StampConnMiss sets the connection-cache-miss flag on an already-marshalled
// frame, in place. The NIC learns the verdict while steering the frame —
// after the sender marshalled it — so, like StampCongestion, the stamp
// patches the encoded header rather than the Message. Frames too short to
// hold a header are left untouched.
func StampConnMiss(frame []byte) {
	if len(frame) < HeaderSize {
		return
	}
	frame[3] |= FlagConnMiss
}

// SubBudget re-anchors a deadline budget across a hop: the remaining budget
// after elapsedMicros have passed, saturating instead of wrapping. expired
// reports that a real budget ran out (the unsaturated subtraction would have
// wrapped to a bogus ~71-minute budget); callers must shed rather than
// forward such a request, because remaining 0 on the wire means "no
// deadline". A zero input budget stays 0/not-expired: no deadline never
// expires.
func SubBudget(budget uint32, elapsedMicros uint64) (remaining uint32, expired bool) {
	if budget == 0 {
		return 0, false
	}
	if elapsedMicros >= uint64(budget) {
		return 0, true
	}
	return budget - uint32(elapsedMicros), false
}

// ParseHeader decodes and validates the fixed-size header at the front of a
// frame's first cache line. It needs only HeaderSize bytes, so the
// reassembler can validate a frame from its first line alone.
func ParseHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderSize {
		return Header{}, ErrShortBuffer
	}
	if binary.LittleEndian.Uint16(buf[0:]) != Magic {
		return Header{}, ErrBadMagic
	}
	k := Kind(buf[2])
	if k < KindRequest || k > KindDisconnect {
		return Header{}, ErrBadKind
	}
	var h Header
	h.Kind = k
	h.Flags = buf[3]
	h.ConnID = binary.LittleEndian.Uint32(buf[4:])
	h.RPCID = binary.LittleEndian.Uint64(buf[8:])
	h.FlowID = binary.LittleEndian.Uint16(buf[16:])
	h.FnID = binary.LittleEndian.Uint16(buf[18:])
	h.Len = binary.LittleEndian.Uint32(buf[20:])
	h.SrcAddr = binary.LittleEndian.Uint32(buf[24:])
	h.DstAddr = binary.LittleEndian.Uint32(buf[28:])
	h.Budget = binary.LittleEndian.Uint32(buf[32:])
	h.Occupancy = buf[occupancyOffset]
	if h.Len > MaxPayload {
		return Header{}, ErrTooLarge
	}
	// Checksum last, so malformed-field errors keep their specific identity.
	if buf[checksumOffset] != headerChecksum(buf) {
		return Header{}, ErrBadChecksum
	}
	return h, nil
}

// Unmarshal decodes one frame from buf, returning the message, the number of
// bytes consumed, and an error. The returned payload aliases buf; Unmarshal
// itself retains nothing and the caller keeps ownership of buf.
//
// dagger:borrows
func Unmarshal(buf []byte) (Message, int, error) {
	if len(buf) < CacheLineSize {
		return Message{}, 0, ErrShortBuffer
	}
	h, err := ParseHeader(buf)
	if err != nil {
		return Message{}, 0, err
	}
	m := Message{Header: h}
	total := LinesFor(int(m.Len)) * CacheLineSize
	if len(buf) < total {
		return Message{}, 0, ErrShortBuffer
	}
	m.Payload = buf[HeaderSize : HeaderSize+int(m.Len)]
	return m, total, nil
}

// OpenFrame decodes the message at the front of a delivered frame and copies
// its payload into one buffer from pool, so the caller may recycle frame as
// soon as OpenFrame returns. Every ring entry on the functional data path is
// a whole frame, so opening one is a header parse and a single copy; bytes
// past the message's last line are ignored. On success the caller owns
// Payload and repays it to pool (an empty payload is nil and borrows
// nothing). On error the message is zero and no loan was taken.
//
// dagger:yields-ownership Payload
func OpenFrame(frame []byte, pool BufferPool) (Message, error) {
	m, _, err := Unmarshal(frame)
	if err != nil {
		return Message{}, err
	}
	body := m.Payload
	m.Payload = nil
	if len(body) > 0 {
		m.Payload = pool.Get(len(body))
		copy(m.Payload, body)
	}
	return m, nil
}
