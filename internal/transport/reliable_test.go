package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipeConn hands each datagram to its peer's handler synchronously, borrowed,
// as the PacketConn contract allows: protocol tests run without goroutines
// or copies of their own.
type pipeConn struct {
	name    string
	peer    *pipeConn
	mu      sync.Mutex
	handler func([]byte, string)
}

func newPipe(a, b string) (*pipeConn, *pipeConn) {
	ca, cb := &pipeConn{name: a}, &pipeConn{name: b}
	ca.peer, cb.peer = cb, ca
	return ca, cb
}

func (c *pipeConn) Send(_ string, pkt []byte) error {
	c.peer.mu.Lock()
	h := c.peer.handler
	c.peer.mu.Unlock()
	if h != nil {
		h(pkt, c.name)
	}
	return nil
}

func (c *pipeConn) SetHandler(h func([]byte, string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handler = h
}

func (c *pipeConn) LocalEndpoint() string { return c.name }
func (c *pipeConn) Close() error          { return nil }

// waitFor polls cond until it holds or d elapses, and reports whether it held.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// A synchronous request/response loop sends no standalone acks: each
// response acknowledges its request and each request the previous response,
// so an exchange costs exactly two datagrams.
func TestAcksRideOnReverseData(t *testing.T) {
	net := newMemNet(0, 10)
	// The RTO is long enough that no tick (which flushes owed acks) fires.
	opts := ReliableOptions{RTO: time.Minute}
	a := NewReliable(net.conn("a"), opts)
	defer a.Close()
	b := NewReliable(net.conn("b"), opts)
	defer b.Close()
	b.SetHandler(func(pkt []byte, from string) { _ = b.Send(from, pkt) })
	got := make(chan byte, 1)
	a.SetHandler(func(pkt []byte, _ string) { got <- pkt[0] })

	exchange := func(i int) {
		t.Helper()
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case v := <-got:
			if v != byte(i) {
				t.Fatalf("exchange %d echoed %d", i, v)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("exchange %d timed out", i)
		}
	}
	exchange(0) // warm-up
	const n = 50
	before := net.sent.Load()
	for i := 1; i <= n; i++ {
		exchange(i)
	}
	if d := net.sent.Load() - before; d != 2*n {
		t.Fatalf("%d exchanges sent %d datagrams, want %d", n, d, 2*n)
	}
	// The last response acknowledged the last request before a saw it.
	if u := a.Unacked(); u != 0 {
		t.Fatalf("requester unacked = %d, want 0", u)
	}
	if a.Retransmits.Load()+b.Retransmits.Load()+a.Duplicates.Load()+b.Duplicates.Load() != 0 {
		t.Fatal("clean loop retransmitted or saw duplicates")
	}
}

// One-way traffic with no reverse data: owed acks are flushed by the tick, so
// they come back well inside the RTO and nothing is retransmitted.
func TestAckDelayBound(t *testing.T) {
	const rto = 100 * time.Millisecond
	net := newMemNet(0, 11)
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: rto})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: rto})
	defer b.Close()
	b.SetHandler(func([]byte, string) {})
	// Ten packets stay below half the initial window, so none asks for an
	// immediate ack.
	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(2*rto, func() bool { return a.Unacked() == 0 }) {
		t.Fatalf("unacked = %d after 2×RTO", a.Unacked())
	}
	if r := a.Retransmits.Load(); r != 0 {
		t.Fatalf("clean one-way path retransmitted %d times", r)
	}
}

// A packet held in retransmission keeps its ring slot while later seqs wrap
// onto it: the colliding packet queues instead of overwriting it, and every
// packet is delivered exactly once.
func TestSendRingWrap(t *testing.T) {
	net := newMemNet(0, 12)
	var hold atomic.Bool
	hold.Store(true)
	net.drop = func(pkt []byte) bool {
		return hold.Load() && pkt[0]&^flagAckNow == pktData && binary.LittleEndian.Uint64(pkt[1:9]) == 1
	}
	a := NewReliable(net.conn("a"), ReliableOptions{
		RTO: 10 * time.Millisecond, MaxRetries: 100, InitialWindow: 4, MaxWindow: 4,
	})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: 10 * time.Millisecond})
	defer b.Close()
	var mu sync.Mutex
	delivered := map[byte]int{}
	b.SetHandler(func(pkt []byte, _ string) {
		mu.Lock()
		delivered[pkt[0]]++
		mu.Unlock()
	})
	const n = 12
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Seqs 2-4 are acked; seq 5 maps onto seq 1's slot and waits, with
	// everything after it behind it.
	if !waitFor(2*time.Second, func() bool { return a.Retransmits.Load() > 0 && a.Unacked() == 1 }) {
		t.Fatalf("seq 1 not lingering alone: unacked=%d retransmits=%d", a.Unacked(), a.Retransmits.Load())
	}
	if q := a.Queued(); q != n-4 {
		t.Fatalf("queued = %d while seq 1 holds its slot, want %d", q, n-4)
	}
	hold.Store(false)
	if !waitFor(5*time.Second, func() bool { return a.Unacked() == 0 && a.Queued() == 0 }) {
		t.Fatalf("did not drain: unacked=%d queued=%d", a.Unacked(), a.Queued())
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if c := delivered[byte(i)]; c != 1 {
			t.Fatalf("payload %d delivered %d times", i, c)
		}
	}
}

// Concurrent senders on both sides of a lossy link, under -race in CI: every
// packet arrives exactly once, acks riding in both directions.
func TestReliableConcurrentSenders(t *testing.T) {
	net := newMemNet(0.05, 13)
	opts := ReliableOptions{RTO: 5 * time.Millisecond, MaxRetries: 100}
	ends := map[string]*Reliable{"a": NewReliable(net.conn("a"), opts), "b": NewReliable(net.conn("b"), opts)}
	const senders, perSender = 4, 100
	var mu sync.Mutex
	delivered := map[string]int{}
	for _, r := range ends {
		defer r.Close()
		r.SetHandler(func(pkt []byte, _ string) {
			mu.Lock()
			delivered[string(pkt)]++
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	for from, r := range ends {
		to := map[string]string{"a": "b", "b": "a"}[from]
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(r *Reliable, g int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					if err := r.Send(to, []byte(fmt.Sprintf("%s/%d/%d", from, g, i))); err != nil {
						t.Error(err)
						return
					}
				}
			}(r, g)
		}
	}
	wg.Wait()
	total := 2 * senders * perSender
	if !waitFor(20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) == total
	}) {
		t.Fatalf("delivered %d of %d", len(delivered), total)
	}
	mu.Lock()
	defer mu.Unlock()
	for k, c := range delivered {
		if c != 1 {
			t.Fatalf("%s delivered %d times", k, c)
		}
	}
}

func TestDedupWindow(t *testing.T) {
	var w dedupWindow
	steps := []struct {
		seq   uint64
		fresh bool
	}{
		{1, true}, {1, false}, {3, true}, {2, true}, {2, false}, {3, false},
		{rxWindow + 2, true}, // 1 and 2 fall out of the window, 3 stays in
		{2, false}, {3, false}, {4, true}, {rxWindow + 1, true},
		{5 * rxWindow, true}, // a jump past the whole window clears it
		{4 * rxWindow, false}, {4*rxWindow + 1, true}, {4*rxWindow + 1, false},
	}
	for i, s := range steps {
		if got := w.admit(s.seq); got != s.fresh {
			t.Fatalf("step %d: admit(%d) = %v, want %v", i, s.seq, got, s.fresh)
		}
	}
}

// A peer routed by hostname is acknowledged: the UDP conn reports its
// datagrams under the name the route used, so acks find the session Send
// opened instead of leaving every packet to be retransmitted, abandoned and
// dead-lettered.
func TestUDPHostnamePeerIsAcked(t *testing.T) {
	if ua, err := net.ResolveUDPAddr("udp", "localhost:0"); err != nil || !ua.IP.Equal(net.IPv4(127, 0, 0, 1)) {
		t.Skip("localhost does not resolve to 127.0.0.1 here")
	}
	ua, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ub, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := ReliableOptions{RTO: 100 * time.Millisecond, MaxRetries: 3}
	a, b := NewReliable(ua, opts), NewReliable(ub, opts)
	defer a.Close()
	defer b.Close()
	_, port, _ := net.SplitHostPort(ub.LocalEndpoint())
	peer := "localhost:" + port

	echoes := make(chan string, 8)
	b.SetHandler(func(pkt []byte, from string) { _ = b.Send(from, pkt) })
	a.SetHandler(func(pkt []byte, from string) { echoes <- from })
	for i := 0; i < 5; i++ {
		if err := a.Send(peer, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case from := <-echoes:
			if from != peer {
				t.Fatalf("echo reported from %q, want %q", from, peer)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("echo timeout")
		}
	}
	if !waitFor(2*time.Second, func() bool { return a.Unacked() == 0 && b.Unacked() == 0 }) {
		t.Fatalf("unacked a=%d b=%d", a.Unacked(), b.Unacked())
	}
	for name, r := range map[string]*Reliable{"a": a, "b": b} {
		if r.Retransmits.Load() != 0 || r.GaveUp.Load() != 0 {
			t.Fatalf("%s: retransmits=%d gaveup=%d, want 0/0", name, r.Retransmits.Load(), r.GaveUp.Load())
		}
	}
}

// FuzzReliablePacket feeds arbitrary datagrams to a receiver that has three
// packets of its own in flight. It must never panic, never deliver one seq
// twice, and never acknowledge a seq no datagram carried.
//
// The input is a sequence of datagrams, each prefixed by its length byte.
func FuzzReliablePacket(f *testing.F) {
	data := func(flags byte, seq uint64, acks []uint64, payload string) []byte {
		return appendData(nil, seq, flags, acks, []byte(payload))
	}
	frames := func(dgs ...[]byte) []byte {
		var out []byte
		for _, d := range dgs {
			out = append(out, byte(len(d)))
			out = append(out, d...)
		}
		return out
	}
	f.Add(frames(data(0, 1, nil, "x")))
	f.Add(frames(data(0, 1, []uint64{1, 2, 1 + 1024}, "x"), appendAcks([]byte{pktAck}, []uint64{3, 0, 99})))
	f.Add(frames([]byte{pktData, 2, 0, 0, 0, 0, 0, 0, 0, 5, 1, 0, 0, 0, 0, 0, 0, 0})) // nacks beyond the datagram
	f.Add(frames([]byte{pktData, 2, 3}))                                              // truncated header
	f.Add(frames(data(0, 7, nil, "dup"), data(flagAckNow, 7, nil, "dup")))            // ack-now duplicate
	f.Add(frames(data(0, 0, nil, "zero"), data(0, rxWindow*3, nil, "far"), data(0, 2, nil, "old")))
	f.Fuzz(func(t *testing.T, in []byte) {
		wire, peer := newPipe("r", "peer")
		var out [][]byte
		peer.SetHandler(func(pkt []byte, _ string) { out = append(out, append([]byte(nil), pkt...)) })
		r := NewReliable(wire, ReliableOptions{RTO: time.Hour})
		defer r.Close()
		var cur uint64
		delivered := map[uint64]bool{}
		r.SetHandler(func([]byte, string) {
			if delivered[cur] {
				t.Fatalf("seq %d delivered twice", cur)
			}
			delivered[cur] = true
		})
		for i := 0; i < 3; i++ {
			_ = r.Send("peer", []byte{byte(i)})
		}
		carried := map[uint64]bool{}
		for len(in) > 0 {
			n := min(int(in[0]), len(in)-1)
			d := in[1 : 1+n]
			in = in[1+n:]
			cur = 0
			if len(d) >= 9 && d[0]&^flagAckNow == pktData {
				cur = binary.LittleEndian.Uint64(d[1:9])
				carried[cur] = true
			}
			// The pipe delivers to r's protocol handler, as a datagram from peer.
			wire.mu.Lock()
			h := wire.handler
			wire.mu.Unlock()
			h(d, "peer")
		}
		_ = r.Send("peer", []byte("flush")) // carries every ack still owed
		if u := r.Unacked(); u < 0 || u > 4 {
			t.Fatalf("unacked = %d with 4 packets sent", u)
		}
		for _, pkt := range out {
			p, ok := parsePacket(pkt)
			if !ok {
				t.Fatalf("receiver sent a malformed packet % x", pkt)
			}
			for i := 0; i < len(p.acks); i += 8 {
				if a := binary.LittleEndian.Uint64(p.acks[i:]); !carried[a] {
					t.Fatalf("acked seq %d, which no datagram carried", a)
				}
			}
		}
	})
}
