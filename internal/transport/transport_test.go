package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/kvs/mica"
)

// ===== Route table =====

func TestRouteTable(t *testing.T) {
	rt := NewRouteTable(
		Route{Lo: 100, Hi: 199, Endpoint: "hostA"},
		Route{Lo: 200, Hi: 200, Endpoint: "hostB"},
	)
	if ep, ok := rt.Resolve(150); !ok || ep != "hostA" {
		t.Fatalf("resolve(150) = %q,%v", ep, ok)
	}
	if ep, ok := rt.Resolve(200); !ok || ep != "hostB" {
		t.Fatalf("resolve(200) = %q,%v", ep, ok)
	}
	if _, ok := rt.Resolve(50); ok {
		t.Fatal("unrouted address resolved")
	}
}

// TestRouteTableBinarySearch covers the sorted-interval lookup: unsorted
// insertion order, exact boundary addresses, gaps between ranges, and the
// extremes of the address space.
func TestRouteTableBinarySearch(t *testing.T) {
	rt := NewRouteTable(
		Route{Lo: 500, Hi: 599, Endpoint: "hostC"},
		Route{Lo: 100, Hi: 199, Endpoint: "hostA"},
		Route{Lo: 300, Hi: 300, Endpoint: "hostB"},
		Route{Lo: 0, Hi: 0, Endpoint: "zero"},
		Route{Lo: 1 << 31, Hi: ^uint32(0), Endpoint: "high"},
	)
	cases := []struct {
		addr uint32
		ep   string
		ok   bool
	}{
		{0, "zero", true},
		{1, "", false},
		{99, "", false},
		{100, "hostA", true},
		{199, "hostA", true},
		{200, "", false},
		{300, "hostB", true},
		{301, "", false},
		{499, "", false},
		{500, "hostC", true},
		{599, "hostC", true},
		{600, "", false},
		{1 << 31, "high", true},
		{^uint32(0), "high", true},
		{1<<31 - 1, "", false},
	}
	for _, c := range cases {
		if ep, ok := rt.Resolve(c.addr); ok != c.ok || ep != c.ep {
			t.Fatalf("Resolve(%d) = %q,%v; want %q,%v", c.addr, ep, ok, c.ep, c.ok)
		}
	}
	// Empty table.
	if _, ok := NewRouteTable().Resolve(42); ok {
		t.Fatal("empty table resolved an address")
	}
}

func TestRouteTableRejectsOverlap(t *testing.T) {
	overlaps := [][2]Route{
		{{Lo: 100, Hi: 199, Endpoint: "a"}, {Lo: 150, Hi: 250, Endpoint: "b"}},
		{{Lo: 100, Hi: 199, Endpoint: "a"}, {Lo: 50, Hi: 100, Endpoint: "b"}},
		{{Lo: 100, Hi: 199, Endpoint: "a"}, {Lo: 100, Hi: 199, Endpoint: "b"}},
		{{Lo: 100, Hi: 199, Endpoint: "a"}, {Lo: 120, Hi: 130, Endpoint: "b"}},
	}
	for i, pair := range overlaps {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: overlapping route accepted", i)
				}
			}()
			NewRouteTable(pair[0], pair[1])
		}()
	}
}

func TestRouteTableRejectsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted route accepted")
		}
	}()
	NewRouteTable(Route{Lo: 5, Hi: 1, Endpoint: "x"})
}

// ===== Lossy in-memory conn for protocol tests =====

// memNet is an in-memory datagram network with configurable loss.
type memNet struct {
	mu    sync.Mutex
	conns map[string]*memConn
	rng   *rand.Rand
	loss  float64
	// drop, when set, also loses every datagram it matches.
	drop func(pkt []byte) bool
	sent atomic.Int64 // datagrams handed to Send, lost ones included
}

func newMemNet(loss float64, seed int64) *memNet {
	return &memNet{conns: map[string]*memConn{}, rng: rand.New(rand.NewSource(seed)), loss: loss}
}

type memConn struct {
	net     *memNet
	name    string
	mu      sync.Mutex
	handler func([]byte, string)
	closed  bool
}

func (n *memNet) conn(name string) *memConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := &memConn{net: n, name: name}
	n.conns[name] = c
	return c
}

func (c *memConn) Send(endpoint string, pkt []byte) error {
	c.net.mu.Lock()
	dst := c.net.conns[endpoint]
	drop := c.net.rng.Float64() < c.net.loss || (c.net.drop != nil && c.net.drop(pkt))
	c.net.mu.Unlock()
	c.net.sent.Add(1)
	if dst == nil {
		return fmt.Errorf("memnet: no conn %q", endpoint)
	}
	if drop {
		return nil // silently lost, like UDP
	}
	cp := make([]byte, len(pkt))
	copy(cp, pkt)
	go func() {
		dst.mu.Lock()
		h := dst.handler
		closed := dst.closed
		dst.mu.Unlock()
		if h != nil && !closed {
			h(cp, c.name)
		}
	}()
	return nil
}

func (c *memConn) SetHandler(h func([]byte, string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handler = h
}

func (c *memConn) LocalEndpoint() string { return c.name }

func (c *memConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// ===== Reliability protocol =====

func TestReliableDeliversWithoutLoss(t *testing.T) {
	net := newMemNet(0, 1)
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 5 * time.Millisecond})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: 5 * time.Millisecond})
	defer b.Close()

	got := make(chan []byte, 16)
	b.SetHandler(func(pkt []byte, from string) {
		if from != "a" {
			t.Errorf("from = %q", from)
		}
		got <- pkt
	})
	for i := 0; i < 5; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[byte]bool{}
	for i := 0; i < 5; i++ {
		select {
		case p := <-got:
			seen[p[0]] = true
		case <-time.After(2 * time.Second):
			t.Fatal("delivery timeout")
		}
	}
	if len(seen) != 5 {
		t.Fatalf("delivered %d distinct, want 5", len(seen))
	}
	deadline := time.Now().Add(time.Second)
	for a.Unacked() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.Unacked() != 0 {
		t.Fatalf("unacked = %d after acks", a.Unacked())
	}
}

func TestReliableSurvivesHeavyLoss(t *testing.T) {
	net := newMemNet(0.4, 2) // 40% datagram loss, both directions
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 3 * time.Millisecond, MaxRetries: 50})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: 3 * time.Millisecond, MaxRetries: 50})
	defer b.Close()

	const n = 100
	var mu sync.Mutex
	delivered := map[byte]int{}
	b.SetHandler(func(pkt []byte, _ string) {
		mu.Lock()
		delivered[pkt[0]]++
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		count := len(delivered)
		mu.Unlock()
		if count == n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != n {
		t.Fatalf("delivered %d of %d under loss", len(delivered), n)
	}
	// Exactly-once to the handler despite retransmission.
	for k, c := range delivered {
		if c != 1 {
			t.Fatalf("packet %d delivered %d times", k, c)
		}
	}
	if a.Retransmits.Load() == 0 {
		t.Error("no retransmits under 40% loss?")
	}
}

func TestReliableGivesUpEventually(t *testing.T) {
	net := newMemNet(1.0, 3) // total blackout
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 2 * time.Millisecond, MaxRetries: 3})
	defer a.Close()
	net.conn("b") // exists but unreachable
	if err := a.Send("b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.Unacked() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if a.Unacked() != 0 {
		t.Fatal("sender never gave up")
	}
	if a.GaveUp.Load() != 1 {
		t.Fatalf("gaveUp = %d", a.GaveUp.Load())
	}
}

// ===== UDP conn =====

func TestUDPConnRoundTrip(t *testing.T) {
	a, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan string, 1)
	b.SetHandler(func(pkt []byte, from string) { got <- string(pkt) })
	if err := a.Send(b.LocalEndpoint(), []byte("over-udp")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "over-udp" {
			t.Fatalf("payload %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("udp delivery timeout")
	}
}

// ===== Bridge: full RPC across two fabrics over real UDP =====

func twoHosts(t *testing.T) (cliFab, srvFab *fabric.Fabric, cleanup func()) {
	t.Helper()
	cliFab = fabric.NewFabric()
	srvFab = fabric.NewFabric()
	cliConn, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvConn, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cliRel := NewReliable(cliConn, ReliableOptions{RTO: 10 * time.Millisecond})
	srvRel := NewReliable(srvConn, ReliableOptions{RTO: 10 * time.Millisecond})
	cliBridge := NewBridge(cliFab, cliRel, NewRouteTable(Route{Lo: 100, Hi: 199, Endpoint: srvConn.LocalEndpoint()}))
	srvBridge := NewBridge(srvFab, srvRel, NewRouteTable(Route{Lo: 1, Hi: 99, Endpoint: cliConn.LocalEndpoint()}))
	return cliFab, srvFab, func() {
		cliBridge.Close()
		srvBridge.Close()
	}
}

func TestBridgeRPCOverUDP(t *testing.T) {
	cliFab, srvFab, cleanup := twoHosts(t)
	defer cleanup()

	snic, err := srvFab.CreateNIC(100, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewRpcThreadedServer(snic, core.ServerConfig{})
	if err := srv.Register(0, "echo", func(_ context.Context, req []byte) ([]byte, error) {
		return append([]byte("udp:"), req...), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	cnic, err := cliFab.CreateNIC(1, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := core.NewRpcClient(cnic, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("m%d", i))
		resp, err := cli.Call(0, msg)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(resp, append([]byte("udp:"), msg...)) {
			t.Fatalf("call %d: resp %q", i, resp)
		}
	}
}

func TestBridgeMICAOverUDP(t *testing.T) {
	cliFab, srvFab, cleanup := twoHosts(t)
	defer cleanup()

	snic, err := srvFab.CreateNIC(100, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	store := mica.NewStore(4, 1024, 1<<20)
	srv, err := mica.Serve(snic, store, core.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	cnic, _ := cliFab.CreateNIC(1, 1, 256)
	cli, _ := core.NewRpcClient(cnic, 0)
	defer cli.Close()
	if _, err := cli.OpenConnection(100); err != nil {
		t.Fatal(err)
	}
	mc := mica.NewClient(cli)
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := mc.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v, err := mc.Get(k)
		if err != nil || !bytes.Equal(v, k) {
			t.Fatalf("key %d over UDP: %q %v", i, v, err)
		}
	}
}

func TestBridgeNoPeer(t *testing.T) {
	fab := fabric.NewFabric()
	conn, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBridge(fab, conn, NewRouteTable())
	defer b.Close()
	nic, _ := fab.CreateNIC(1, 1, 16)
	cli, _ := core.NewRpcClient(nic, 0)
	defer cli.Close()
	if _, err := cli.OpenConnection(999); err != nil {
		t.Fatal(err)
	}
	cli.SetTimeout(time.Millisecond)
	if _, err := cli.Call(0, nil); err == nil {
		t.Fatal("call to unrouted address succeeded")
	}
	if b.NoPeer.Load() == 0 {
		t.Fatal("NoPeer counter not bumped")
	}
}

// AIMD congestion control: the window grows on clean acks and halves on
// retransmission timeouts, and packets beyond it queue rather than flood.
func TestCongestionWindowDynamics(t *testing.T) {
	// Clean network: window grows.
	clean := newMemNet(0, 4)
	a := NewReliable(clean.conn("a"), ReliableOptions{RTO: 5 * time.Millisecond, InitialWindow: 4})
	defer a.Close()
	b := NewReliable(clean.conn("b"), ReliableOptions{RTO: 5 * time.Millisecond})
	defer b.Close()
	b.SetHandler(func([]byte, string) {})
	for i := 0; i < 200; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for (a.Unacked() > 0 || a.Queued() > 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.Queued() != 0 || a.Unacked() != 0 {
		t.Fatalf("pipeline did not drain: unacked=%d queued=%d", a.Unacked(), a.Queued())
	}
	if w := a.Window("b"); w <= 4 {
		t.Errorf("window did not grow on clean network: %.1f", w)
	}

	// Blackout: window collapses to the floor.
	dark := newMemNet(1.0, 5)
	c := NewReliable(dark.conn("c"), ReliableOptions{RTO: 2 * time.Millisecond, MaxRetries: 4, InitialWindow: 16})
	defer c.Close()
	dark.conn("d")
	for i := 0; i < 8; i++ {
		_ = c.Send("d", []byte{byte(i)})
	}
	deadline = time.Now().Add(2 * time.Second)
	for c.Window("d") > 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if w := c.Window("d"); w > 1 {
		t.Errorf("window did not collapse under total loss: %.1f", w)
	}
}

// Queued packets behind a small window must still all be delivered,
// in-window batches at a time.
func TestCongestionWindowDrainsQueue(t *testing.T) {
	net := newMemNet(0, 6)
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 5 * time.Millisecond, InitialWindow: 2, MaxWindow: 4})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: 5 * time.Millisecond})
	defer b.Close()
	var mu sync.Mutex
	got := map[byte]bool{}
	b.SetHandler(func(pkt []byte, _ string) {
		mu.Lock()
		got[pkt[0]] = true
		mu.Unlock()
	})
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		c := len(got)
		mu.Unlock()
		if c == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("only %d of %d delivered through the window", len(got), n)
}

// ===== Dead-letter plane =====

// A packet the protocol abandons must surface through the dead-letter hook
// with its original (unframed) payload, not vanish silently.
func TestDeadLetterCallback(t *testing.T) {
	net := newMemNet(1.0, 7) // total blackout
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 2 * time.Millisecond, MaxRetries: 2})
	defer a.Close()
	net.conn("b")

	type deadPkt struct {
		endpoint string
		payload  []byte
	}
	got := make(chan deadPkt, 1)
	a.SetDeadLetter(func(ep string, pkt []byte) {
		cp := make([]byte, len(pkt))
		copy(cp, pkt)
		got <- deadPkt{ep, cp}
	})
	if err := a.Send("b", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if d.endpoint != "b" || !bytes.Equal(d.payload, []byte("doomed")) {
			t.Fatalf("dead letter = %q to %q; want original payload to b", d.payload, d.endpoint)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned packet never dead-lettered")
	}
	if a.DeadLetters.Load() != 1 || a.GaveUp.Load() != 1 {
		t.Fatalf("DeadLetters=%d GaveUp=%d, want 1/1", a.DeadLetters.Load(), a.GaveUp.Load())
	}
}

// A give-up-only tick says nothing new about congestion: the window halves
// once per tick that actually retransmitted, and NOT again when the packet is
// finally abandoned. (Regression: give-up storms used to halve cwnd per tick,
// collapsing the window to the floor before a replacement peer saw traffic.)
func TestGiveUpDoesNotCollapseWindow(t *testing.T) {
	net := newMemNet(1.0, 8) // total blackout
	a := NewReliable(net.conn("a"), ReliableOptions{
		RTO: 2 * time.Millisecond, MaxRetries: 1, InitialWindow: 16,
	})
	defer a.Close()
	net.conn("b")
	if err := a.Send("b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.GaveUp.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if a.GaveUp.Load() != 1 {
		t.Fatal("sender never gave up")
	}
	// Exactly one retransmission happened (MaxRetries=1), so exactly one
	// multiplicative decrease: 16 -> 8. The buggy behaviour halved again on
	// the give-up tick, to 4.
	if w := a.Window("b"); w != 8 {
		t.Fatalf("window = %.1f after one retransmit + one give-up, want 8", w)
	}
}

// End-to-end fail-fast: a call routed into a dead path fails with
// core.ErrPeerDead as soon as the transport gives up, via the bridge's
// synthetic FlagDead response — not after the client's full timeout.
func TestBridgeDeadLetterFailsFast(t *testing.T) {
	net := newMemNet(1.0, 9) // the peer is unreachable
	fab := fabric.NewFabric()
	rel := NewReliable(net.conn("cli"), ReliableOptions{RTO: 2 * time.Millisecond, MaxRetries: 3})
	b := NewBridge(fab, rel, NewRouteTable(Route{Lo: 100, Hi: 100, Endpoint: "srv"}))
	defer b.Close()
	net.conn("srv")

	nic, err := fab.CreateNIC(1, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := core.NewRpcClient(nic, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(100); err != nil {
		t.Fatal(err)
	}
	cli.SetTimeout(30 * time.Second) // the dead-letter must beat this by miles

	start := time.Now()
	_, err = cli.Call(0, []byte("into the void"))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("call into dead path: err = %v, want ErrPeerDead", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("dead-letter verdict took %v; fail-fast path did not engage", elapsed)
	}
	if b.DeadLetters.Load() == 0 {
		t.Fatal("bridge dead-letter counter not bumped")
	}
	if cli.PeerDead.Load() != 1 {
		t.Fatalf("client PeerDead = %d, want 1", cli.PeerDead.Load())
	}
}
