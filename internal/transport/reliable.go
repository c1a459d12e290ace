package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dagger/internal/metrics"
	"dagger/internal/retry"
)

// Reliable layers the paper's missing Protocol unit over a lossy
// PacketConn: per-peer sequence numbers, explicit per-packet
// acknowledgements, timer-driven retransmission, duplicate suppression at
// the receiver, and an AIMD congestion window (the "RPC-optimized ...
// congestion control" §4.5 leaves for future work: additive increase per
// acknowledged packet, multiplicative decrease on retransmission; packets
// beyond the window queue at the sender). It itself implements PacketConn,
// so a Bridge can run over either the raw datagram path (the paper's
// pass-through Protocol unit) or the reliable one.
//
// Acknowledgements ride on reverse traffic: every data packet carries the
// list of sequence numbers its sender owes the peer (up to 32), so an RPC's
// response acknowledges its request and the next request acknowledges the
// response — one datagram per direction, as in the paper's pipeline. A
// standalone ack goes out only when a duplicate arrives (our ack was
// evidently lost), when 32 acks are owed, when the packet asks for it (the
// ack-now flag, set once the sender's in-flight count reaches half its
// window and on every packet released from its wait queue), or at the
// retransmission tick, every RTO/4. No ack therefore waits longer than RTO/4
// when both peers use the same RTO, and a clean path never retransmits.
type Reliable struct {
	inner      PacketConn
	rto        time.Duration
	maxRetries int
	initWnd    float64
	maxWnd     float64
	mask       uint64 // send-ring slots - 1
	backoff    retry.Policy

	mu         sync.Mutex
	peers      map[string]*peer
	handler    func([]byte, string)
	deadLetter func(endpoint string, pkt []byte)
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup

	// Counters. metrics.Counter is a drop-in for the atomic.Uint64 these
	// grew up as.
	Retransmits metrics.Counter
	Duplicates  metrics.Counter
	GaveUp      metrics.Counter
	DeadLetters metrics.Counter
}

// slot holds one frame the protocol may send more than once: an unacked data
// packet in the send ring, or a peer's standalone ack. Its buffer is reused
// for the next frame, but never rewritten while a send of it (or a
// dead-letter hand-off) may still be running outside the lock.
type slot struct {
	seq      uint64 // sequence number held; 0 when the ring slot is free
	tries    int
	deadline time.Time
	buf      []byte
	sending  atomic.Int32 // sends of buf running outside the lock
}

// reuse returns the slot's buffer emptied for a new frame, or nil (so the
// frame gets a fresh buffer) when a send of the old one may still be reading
// it.
func (sl *slot) reuse() []byte {
	if sl.sending.Load() != 0 {
		return nil
	}
	return sl.buf[:0]
}

// peer is the protocol state toward one endpoint.
type peer struct {
	// Send side. Sequence numbers are assigned by Send; packets enter the
	// ring in that order, so every seq up to nextSeq-len(waiting) has been
	// sent and only those above sent-len(ring) can still be in the ring.
	nextSeq  uint64
	base     uint64 // no live slot holds a seq below base
	inflight int
	cwnd     float64  // AIMD congestion window, in packets
	ring     []slot   // indexed by seq & mask; nil until the first Send
	waiting  [][]byte // framed packets queued behind the window or an occupied slot

	// Receive side: the duplicate filter and the acks owed to the peer.
	rx    dedupWindow
	acks  [maxAcks]uint64
	nacks int
	ack   slot // the standalone ack frame
}

// sent returns the highest sequence number that has entered the ring.
func (p *peer) sent() uint64 { return p.nextSeq - uint64(len(p.waiting)) }

// rxWindow bounds the duplicate-suppression memory per peer.
const rxWindow = 8192

// dedupWindow is the receive-side duplicate filter: one bit per sequence
// number in (max-rxWindow, max]. Anything at or below max-rxWindow counts as
// a duplicate.
type dedupWindow struct {
	max  uint64
	bits [rxWindow / 64]uint64
}

// bit returns seq's word in the bitmap and its mask within that word.
func (w *dedupWindow) bit(seq uint64) (*uint64, uint64) {
	return &w.bits[seq%rxWindow/64], 1 << (seq % 64)
}

// admit records seq and reports whether it is new.
func (w *dedupWindow) admit(seq uint64) bool {
	if seq > w.max {
		// Positions max+1..seq still hold bits of seqs a window older.
		if seq-w.max >= rxWindow {
			w.bits = [rxWindow / 64]uint64{}
		} else {
			for s := w.max + 1; s <= seq; s++ {
				word, m := w.bit(s)
				*word &^= m
			}
		}
		w.max = seq
	} else if w.max-seq >= rxWindow {
		return false
	}
	word, m := w.bit(seq)
	if *word&m != 0 {
		return false
	}
	*word |= m
	return true
}

// Packet layout. A data packet is type|flags (1) · seq (8) · nacks (1) ·
// nacks × acked seq (8) · payload; a standalone ack is type (1) · nacks (1) ·
// nacks × acked seq (8). Sequence numbers start at 1.
const (
	pktData byte = 1
	pktAck  byte = 2

	// flagAckNow asks the receiver to acknowledge at once rather than wait
	// for reverse traffic or its tick.
	flagAckNow byte = 0x80

	// maxAcks bounds one packet's ack list.
	maxAcks = 32
	dataHdr = 10 // type · seq · nacks
)

// ReliableOptions tunes the protocol.
type ReliableOptions struct {
	// RTO is the retransmission timeout (default 20ms). Owed acks are
	// flushed every RTO/4.
	RTO time.Duration
	// MaxRetries bounds retransmissions before giving up (default 10).
	MaxRetries int
	// InitialWindow is the starting congestion window in packets
	// (default 32). The window grows by one packet per window of acks and
	// halves on retransmission, floored at 1.
	InitialWindow float64
	// MaxWindow caps the congestion window (default 1024). Each peer's send
	// ring has the next power of two at or above it.
	MaxWindow float64
}

// NewReliable wraps inner with the reliability protocol.
func NewReliable(inner PacketConn, opts ReliableOptions) *Reliable {
	if opts.RTO <= 0 {
		opts.RTO = 20 * time.Millisecond
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 10
	}
	if opts.InitialWindow <= 0 {
		opts.InitialWindow = 32
	}
	if opts.MaxWindow <= 0 {
		opts.MaxWindow = 1024
	}
	slots := uint64(1)
	for float64(slots) < opts.MaxWindow {
		slots <<= 1
	}
	r := &Reliable{
		inner:      inner,
		rto:        opts.RTO,
		maxRetries: opts.MaxRetries,
		initWnd:    opts.InitialWindow,
		maxWnd:     opts.MaxWindow,
		mask:       slots - 1,
		// Exponential backoff from RTO: successive retransmissions of the
		// same packet wait longer, so a congested path is not hammered at a
		// fixed cadence. Jitter decorrelates peers that lost packets in the
		// same burst; the fixed seed keeps schedules reproducible.
		backoff: retry.Policy{
			Base:       opts.RTO,
			Max:        8 * opts.RTO,
			Multiplier: 2,
			Jitter:     0.1,
			Seed:       0xDA66,
		},
		peers: make(map[string]*peer),
		stop:  make(chan struct{}),
	}
	inner.SetHandler(r.onPacket)
	r.wg.Add(1)
	go r.retransmitLoop()
	return r
}

// Send transmits a datagram with at-least-once delivery (exactly-once to
// the handler, thanks to receiver-side dedup), carrying the acks owed to
// endpoint. Packets beyond the congestion window queue at the sender and
// drain as acks arrive.
func (r *Reliable) Send(endpoint Endpoint, pkt []byte) error {
	r.mu.Lock()
	p := r.peerLocked(endpoint)
	if p.ring == nil {
		p.ring = make([]slot, r.mask+1)
		p.base = 1
	}
	p.nextSeq++
	seq := p.nextSeq
	sl := &p.ring[seq&r.mask]
	if len(p.waiting) > 0 || sl.seq != 0 || float64(p.inflight) >= p.cwnd {
		// The packet waits behind the window, or behind a lingering
		// retransmit in its slot. Having waited, it asks for a prompt ack.
		p.waiting = append(p.waiting, appendData(nil, seq, flagAckNow, nil, pkt))
		r.mu.Unlock()
		return nil
	}
	p.inflight++
	var flags byte
	if float64(p.inflight) >= p.cwnd/2 {
		flags = flagAckNow
	}
	sl.buf = appendData(sl.reuse(), seq, flags, p.acks[:p.nacks], pkt)
	p.nacks = 0
	r.armLocked(sl, seq)
	buf := sl.buf
	r.mu.Unlock()
	err := r.inner.Send(endpoint, buf)
	sl.sending.Add(-1)
	return err
}

// peerLocked returns (creating if needed) the state toward endpoint.
func (r *Reliable) peerLocked(endpoint string) *peer {
	p := r.peers[endpoint]
	if p == nil {
		p = &peer{cwnd: r.initWnd}
		r.peers[endpoint] = p
	}
	return p
}

// armLocked puts seq in sl with a fresh retransmission deadline and counts
// the send about to run outside the lock.
func (r *Reliable) armLocked(sl *slot, seq uint64) {
	sl.seq = seq
	sl.tries = 0
	sl.deadline = time.Now().Add(r.rto)
	sl.sending.Add(1)
}

// outFrame is a frame collected under the lock and sent after it is released.
type outFrame struct {
	endpoint string
	buf      []byte
	sl       *slot // whose sending count covers buf
}

// send transmits frames collected under the lock and releases their slots.
func (r *Reliable) send(frames []outFrame) {
	for _, f := range frames {
		_ = r.inner.Send(f.endpoint, f.buf) // a failed send is a lost datagram: retransmission covers it
		f.sl.sending.Add(-1)
	}
}

// drainWindowLocked releases queued packets into a freshly opened window,
// appending them to out for sending outside the lock.
func (r *Reliable) drainWindowLocked(endpoint string, p *peer, out []outFrame) []outFrame {
	for len(p.waiting) > 0 && float64(p.inflight) < p.cwnd {
		framed := p.waiting[0]
		seq := binary.LittleEndian.Uint64(framed[1:9])
		sl := &p.ring[seq&r.mask]
		if sl.seq != 0 {
			break // a lingering retransmit still holds the slot
		}
		p.waiting[0] = nil
		p.waiting = p.waiting[1:]
		// The queued frame becomes the slot's buffer; the old one is not
		// rewritten, so a send still reading it is unaffected.
		sl.buf = framed
		r.armLocked(sl, seq)
		p.inflight++
		out = append(out, outFrame{endpoint, framed, sl})
	}
	return out
}

// ackedLocked retires seq from p's send ring, if it is there.
func (r *Reliable) ackedLocked(p *peer, seq uint64) {
	if p.ring == nil || seq == 0 {
		return
	}
	sl := &p.ring[seq&r.mask]
	if sl.seq != seq {
		return // already acked, abandoned, or never sent
	}
	sl.seq = 0
	p.inflight--
	// Additive increase: one packet per window of acks.
	p.cwnd += 1 / p.cwnd
	if p.cwnd > r.maxWnd {
		p.cwnd = r.maxWnd
	}
}

// ackFrameLocked builds a standalone ack carrying every ack owed to p.
func (r *Reliable) ackFrameLocked(endpoint string, p *peer) outFrame {
	sl := &p.ack
	sl.buf = appendAcks(append(sl.reuse(), pktAck), p.acks[:p.nacks])
	p.nacks = 0
	sl.sending.Add(1)
	return outFrame{endpoint, sl.buf, sl}
}

// appendData appends a data packet to dst.
func appendData(dst []byte, seq uint64, flags byte, acks []uint64, payload []byte) []byte {
	dst = slices.Grow(dst, dataHdr+8*len(acks)+len(payload))
	dst = append(dst, pktData|flags)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = appendAcks(dst, acks)
	return append(dst, payload...)
}

// appendAcks appends an ack list (count, then the seqs) to dst.
func appendAcks(dst []byte, acks []uint64) []byte {
	dst = append(dst, byte(len(acks)))
	for _, a := range acks {
		dst = binary.LittleEndian.AppendUint64(dst, a)
	}
	return dst
}

// packet is a parsed datagram; acks and payload alias it.
type packet struct {
	typ, flags byte
	seq        uint64
	acks       []byte // nacks × 8 bytes
	payload    []byte
}

// parsePacket splits a datagram into its fields. ok is false for anything
// malformed, which the receiver drops whole.
func parsePacket(pkt []byte) (p packet, ok bool) {
	if len(pkt) == 0 {
		return p, false
	}
	p.typ, p.flags = pkt[0]&^flagAckNow, pkt[0]&flagAckNow
	rest := pkt[1:]
	switch p.typ {
	case pktData:
		if len(rest) < 8 {
			return p, false
		}
		p.seq = binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		if p.seq == 0 {
			return p, false
		}
	case pktAck:
	default:
		return p, false
	}
	if len(rest) == 0 {
		return p, false
	}
	n := int(rest[0])
	rest = rest[1:]
	if n > maxAcks || len(rest) < 8*n {
		return p, false
	}
	p.acks, p.payload = rest[:8*n], rest[8*n:]
	if p.typ == pktAck && len(p.payload) != 0 {
		return p, false
	}
	return p, true
}

// dataPayload returns the payload of a data packet this side framed.
func dataPayload(framed []byte) []byte {
	return framed[dataHdr+8*int(framed[dataHdr-1]):]
}

// SetDeadLetter installs a callback invoked (outside the protocol lock, from
// the retransmission goroutine) for every packet the protocol abandons after
// MaxRetries retransmissions. pkt is the original datagram payload as passed
// to Send — the framing header is stripped — and is only valid for the
// duration of the callback. Without a dead-letter hook an abandoned packet
// vanishes silently and the caller's RPC hangs until its own timeout; with
// one, the caller can fail the RPC fast (the Bridge turns dead requests into
// synthetic FlagDead responses so clients see ErrPeerDead).
func (r *Reliable) SetDeadLetter(fn func(endpoint string, pkt []byte)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deadLetter = fn
}

// SetHandler installs the deduplicated receive callback.
func (r *Reliable) SetHandler(h func([]byte, Endpoint)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handler = h
}

// LocalEndpoint returns the inner conn's endpoint.
func (r *Reliable) LocalEndpoint() Endpoint { return r.inner.LocalEndpoint() }

// Close stops retransmission and the inner conn.
func (r *Reliable) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	err := r.inner.Close()
	r.wg.Wait()
	return err
}

func (r *Reliable) onPacket(pkt []byte, from string) {
	in, ok := parsePacket(pkt)
	if !ok {
		return
	}
	var frames [4]outFrame // what one packet releases, in the common case
	out := frames[:0]
	r.mu.Lock()
	if in.typ == pktAck && r.peers[from] == nil {
		r.mu.Unlock()
		return // acks for a peer we never sent to
	}
	p := r.peerLocked(from)
	for i := 0; i < len(in.acks); i += 8 {
		r.ackedLocked(p, binary.LittleEndian.Uint64(in.acks[i:]))
	}
	out = r.drainWindowLocked(from, p, out)
	fresh := false
	var h func([]byte, string)
	if in.typ == pktData {
		fresh = p.rx.admit(in.seq)
		if !fresh {
			r.Duplicates.Add(1)
		}
		p.acks[p.nacks] = in.seq
		p.nacks++
		// A duplicate means the peer missed our ack: re-acknowledge at once.
		if !fresh || in.flags&flagAckNow != 0 || p.nacks == maxAcks {
			out = append(out, r.ackFrameLocked(from, p))
		}
		h = r.handler
	}
	r.mu.Unlock()
	r.send(out)
	if fresh && h != nil {
		h(in.payload, from)
	}
}

// scanLocked walks p's ring oldest-first: it abandons packets out of retries
// (appending them to dead) and retransmits the overdue rest (appending them
// to out), then refills the window from the queue.
func (r *Reliable) scanLocked(endpoint string, p *peer, now time.Time, out, dead []outFrame) ([]outFrame, []outFrame) {
	sent := p.sent()
	if n := uint64(len(p.ring)); sent >= n && p.base+n <= sent {
		p.base = sent - n + 1
	}
	base := sent + 1
	retransmitted := false
	for seq := p.base; seq <= sent; seq++ {
		sl := &p.ring[seq&r.mask]
		if sl.seq != seq {
			continue
		}
		if now.Before(sl.deadline) {
			base = min(base, seq)
			continue
		}
		sl.tries++
		if sl.tries > r.maxRetries {
			sl.seq = 0
			p.inflight--
			r.GaveUp.Add(1)
			sl.sending.Add(1)
			dead = append(dead, outFrame{endpoint, sl.buf, sl})
			continue
		}
		base = min(base, seq)
		// Exponential backoff per attempt: the next deadline stretches with
		// each retransmission of this packet.
		retransmitted = true
		sl.deadline = now.Add(r.backoff.Backoff(sl.tries))
		r.Retransmits.Add(1)
		sl.sending.Add(1)
		out = append(out, outFrame{endpoint, sl.buf, sl})
	}
	p.base = base
	if retransmitted {
		// Multiplicative decrease on loss — but only when a live packet was
		// actually retransmitted. A tick that only abandons packets (give-up
		// storm after a peer death) says nothing new about path congestion,
		// and halving per tick would collapse the window to 1 before the
		// peer's replacement ever saw traffic.
		p.cwnd /= 2
		if p.cwnd < 1 {
			p.cwnd = 1
		}
	}
	return r.drainWindowLocked(endpoint, p, out), dead
}

func (r *Reliable) retransmitLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.rto / 4)
	defer tick.Stop()
	// Reused across ticks so the steady-state scan is allocation-free.
	out := make([]outFrame, 0, 64)
	dead := make([]outFrame, 0, 16)
	for {
		select {
		case <-r.stop:
			return
		case now := <-tick.C:
			out, dead = out[:0], dead[:0]
			r.mu.Lock()
			onDead := r.deadLetter
			for ep, p := range r.peers {
				if p.ring != nil {
					out, dead = r.scanLocked(ep, p, now, out, dead)
				}
				if p.nacks > 0 {
					out = append(out, r.ackFrameLocked(ep, p))
				}
			}
			r.mu.Unlock()
			r.send(out)
			for _, d := range dead {
				if onDead != nil {
					r.DeadLetters.Add(1)
					onDead(d.endpoint, dataPayload(d.buf))
				}
				d.sl.sending.Add(-1)
			}
		}
	}
}

var _ PacketConn = (*Reliable)(nil)

// String describes the protocol configuration.
func (r *Reliable) String() string {
	return fmt.Sprintf("reliable(rto=%v retries=%d)", r.rto, r.maxRetries)
}
