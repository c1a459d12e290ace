package fabric

import (
	"fmt"
	"sync"
	"testing"

	"dagger/internal/connstate"
	"dagger/internal/wire"
)

func twoNICs(t *testing.T) (*Fabric, *SoftNIC, *SoftNIC) {
	t.Helper()
	f := NewFabric()
	a, err := f.CreateNIC(1, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.CreateNIC(2, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f, a, b
}

func req(src, dst uint32, conn uint32, flow uint16, payload string) *wire.Message {
	return &wire.Message{
		Header: wire.Header{
			Kind: wire.KindRequest, ConnID: conn, RPCID: 1,
			FlowID: flow, SrcAddr: src, DstAddr: dst,
		},
		Payload: []byte(payload),
	}
}

func TestFabricRouting(t *testing.T) {
	_, a, b := twoNICs(t)
	if err := a.Send(req(1, 2, 7, 0, "hi")); err != nil {
		t.Fatal(err)
	}
	// Static balancing assigned some flow on b; find the frame.
	var got []byte
	for i := 0; i < b.NumFlows(); i++ {
		fl, _ := b.Flow(i)
		if frame, ok := fl.TryRecv(); ok {
			got = frame
			break
		}
	}
	if got == nil {
		t.Fatal("frame not delivered to any flow")
	}
	m, _, err := wire.Unmarshal(got)
	if err != nil || string(m.Payload) != "hi" {
		t.Fatalf("payload = %q err %v", m.Payload, err)
	}
	if a.RPCsOut.Load() != 1 || b.RPCsIn.Load() != 1 {
		t.Fatal("monitor counters wrong")
	}
}

func TestFabricNoRoute(t *testing.T) {
	_, a, _ := twoNICs(t)
	if err := a.Send(req(1, 99, 1, 0, "x")); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestFabricStaticConnectionAffinity(t *testing.T) {
	_, a, b := twoNICs(t)
	// All requests on one connection must land on the same server flow.
	for i := 0; i < 10; i++ {
		if err := a.Send(req(1, 2, 5, 0, "x")); err != nil {
			t.Fatal(err)
		}
	}
	flowsHit := 0
	for i := 0; i < b.NumFlows(); i++ {
		fl, _ := b.Flow(i)
		n := 0
		for {
			if _, ok := fl.TryRecv(); !ok {
				break
			}
			n++
		}
		if n > 0 {
			flowsHit++
			if n != 10 {
				t.Fatalf("connection split across flows: %d on flow %d", n, i)
			}
		}
	}
	if flowsHit != 1 {
		t.Fatalf("connection hit %d flows, want 1", flowsHit)
	}
}

func TestFabricUniformBalancer(t *testing.T) {
	_, a, b := twoNICs(t)
	if err := b.SetBalancer(BalanceUniform, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := a.Send(req(1, 2, uint32(i), 0, "x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < b.NumFlows(); i++ {
		fl, _ := b.Flow(i)
		n := 0
		for {
			if _, ok := fl.TryRecv(); !ok {
				break
			}
			n++
		}
		if n != 10 {
			t.Fatalf("flow %d got %d, want 10 (uniform)", i, n)
		}
	}
}

func TestUniformSteeringUnbiasedAcrossWrap(t *testing.T) {
	f := NewFabric()
	a, err := f.CreateNIC(1, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.CreateNIC(2, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetBalancer(BalanceUniform, nil); err != nil {
		t.Fatal(err)
	}
	// Park the round-robin counter so the send window straddles the 16-bit
	// boundary at a misaligned offset. The old steering truncated the
	// counter to uint16 before the modulo, which replays residue 0 at the
	// wrap (65535 % 3 == 0 and uint16(65536) % 3 == 0) and skews the split
	// to 21/20/19; full-width modulo keeps it exactly uniform.
	b.rr.Store(1<<16 - 31)
	const sends = 60
	for i := 0; i < sends; i++ {
		if err := a.Send(req(1, 2, uint32(i), 0, "x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < b.NumFlows(); i++ {
		fl, _ := b.Flow(i)
		n := 0
		for {
			if _, ok := fl.TryRecv(); !ok {
				break
			}
			n++
		}
		if n != sends/3 {
			t.Fatalf("flow %d got %d of %d across the counter wrap, want %d", i, n, sends, sends/3)
		}
	}
}

func TestFabricObjectLevelBalancer(t *testing.T) {
	_, a, b := twoNICs(t)
	if err := b.SetBalancer(BalanceObjectLevel, func(p []byte) []byte { return p }); err != nil {
		t.Fatal(err)
	}
	// Same payload key -> same flow every time, from any connection.
	for i := 0; i < 20; i++ {
		if err := a.Send(req(1, 2, uint32(i), 0, "hotkey")); err != nil {
			t.Fatal(err)
		}
	}
	hit := 0
	for i := 0; i < b.NumFlows(); i++ {
		fl, _ := b.Flow(i)
		n := 0
		for {
			if _, ok := fl.TryRecv(); !ok {
				break
			}
			n++
		}
		if n > 0 {
			hit++
			if n != 20 {
				t.Fatalf("key split across flows")
			}
		}
	}
	if hit != 1 {
		t.Fatalf("key landed on %d flows", hit)
	}
}

func TestFabricObjectLevelNeedsExtractor(t *testing.T) {
	_, _, b := twoNICs(t)
	if err := b.SetBalancer(BalanceObjectLevel, nil); err == nil {
		t.Fatal("object-level without extractor accepted")
	}
}

func TestFabricResponseSteering(t *testing.T) {
	_, a, b := twoNICs(t)
	resp := &wire.Message{
		Header: wire.Header{
			Kind: wire.KindResponse, ConnID: 1, RPCID: 9,
			FlowID: 1, SrcAddr: 2, DstAddr: 1,
		},
		Payload: []byte("pong"),
	}
	if err := b.Send(resp); err != nil {
		t.Fatal(err)
	}
	fl, _ := a.Flow(1)
	frame, ok := fl.TryRecv()
	if !ok {
		t.Fatal("response not steered to requester's flow 1")
	}
	m, _, _ := wire.Unmarshal(frame)
	if string(m.Payload) != "pong" {
		t.Fatal("payload mismatch")
	}
	fl0, _ := a.Flow(0)
	if _, ok := fl0.TryRecv(); ok {
		t.Fatal("response duplicated to flow 0")
	}
}

func TestFabricRingFullDrops(t *testing.T) {
	f := NewFabric()
	a, _ := f.CreateNIC(1, 1, 16)
	b, _ := f.CreateNIC(2, 1, 2)
	var lastErr error
	for i := 0; i < 5; i++ {
		if err := a.Send(req(1, 2, 1, 0, "x")); err != nil {
			lastErr = err
		}
	}
	if lastErr != ErrRingFull {
		t.Fatalf("err = %v, want ErrRingFull", lastErr)
	}
	if sample(b, "drop.rx.ring") == 0 || a.Drops.Load() == 0 {
		t.Fatal("drop counters not updated")
	}
}

// TestFabricCongestionMarking drives one flow's RX ring from empty to full
// without draining: frames admitted below the half-occupancy threshold must
// arrive clean, frames at or past it must carry the congestion bit and an
// occupancy hint that agrees with dataplane.Mark on the same depth.
func TestFabricCongestionMarking(t *testing.T) {
	const depth = 16
	f := NewFabric()
	a, _ := f.CreateNIC(1, 1, depth)
	b, _ := f.CreateNIC(2, 1, depth)
	for i := 0; i < depth; i++ {
		if err := a.Send(req(1, 2, 1, 0, "x")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	fl, _ := b.Flow(0)
	for i := 0; i < depth; i++ {
		frame, ok := fl.TryRecv()
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		h, err := wire.ParseHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		wantMark := i >= depth/2 // frame i was admitted at ring depth i
		if h.Congested() != wantMark {
			t.Fatalf("frame %d congested=%v, want %v", i, h.Congested(), wantMark)
		}
		if wantMark && !(h.Occupancy >= 128) {
			t.Fatalf("frame %d marked with low hint %d", i, h.Occupancy)
		}
		if !wantMark && h.Occupancy != 0 {
			t.Fatalf("clean frame %d carries hint %d", i, h.Occupancy)
		}
	}
	if got := sample(b, "mark.rx.stamped"); got != depth/2 {
		t.Fatalf("NIC marked %d frames, want %d", got, depth/2)
	}
}

func TestFabricCloseAndReuseAddress(t *testing.T) {
	f := NewFabric()
	a, _ := f.CreateNIC(1, 1, 4)
	if _, err := f.CreateNIC(1, 1, 4); err != ErrDupAddress {
		t.Fatalf("dup address err = %v", err)
	}
	a.Close()
	if err := a.Send(req(1, 1, 1, 0, "x")); err != ErrClosed {
		t.Fatalf("send on closed NIC err = %v", err)
	}
	if _, err := f.CreateNIC(1, 1, 4); err != nil {
		t.Fatalf("address not released: %v", err)
	}
}

func TestFlowRecvBlocksAndWakes(t *testing.T) {
	f := NewFabric()
	a, _ := f.CreateNIC(1, 1, 4)
	b, _ := f.CreateNIC(2, 1, 4)
	fl, _ := b.Flow(0)
	stop := make(chan struct{})
	got := make(chan []byte, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		frame, ok := fl.Recv(stop)
		if ok {
			got <- frame
		}
	}()
	if err := a.Send(req(1, 2, 1, 0, "wake")); err != nil {
		t.Fatal(err)
	}
	frame := <-got
	m, _, _ := wire.Unmarshal(frame)
	if string(m.Payload) != "wake" {
		t.Fatal("wrong frame")
	}
	close(stop)
	wg.Wait()
}

func TestFlowRecvStop(t *testing.T) {
	f := NewFabric()
	b, _ := f.CreateNIC(2, 1, 4)
	fl, _ := b.Flow(0)
	stop := make(chan struct{})
	done := make(chan bool)
	go func() {
		_, ok := fl.Recv(stop)
		done <- ok
	}()
	close(stop)
	if ok := <-done; ok {
		t.Fatal("Recv returned ok after stop with empty ring")
	}
}

func TestConcurrentSenders(t *testing.T) {
	f := NewFabric()
	_, _ = f.CreateNIC(99, 1, 4) // unrelated NIC
	dst, _ := f.CreateNIC(2, 4, 4096)
	const senders, per = 8, 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		src, err := f.CreateNIC(uint32(100+s), 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := req(src.Addr(), 2, uint32(s), 0, fmt.Sprintf("m%d", i))
				if err := src.Send(m); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := dst.RPCsIn.Load(); got != senders*per {
		t.Fatalf("delivered %d, want %d", got, senders*per)
	}
}

func TestGatewayForwardsNonLocal(t *testing.T) {
	f := NewFabric()
	a, _ := f.CreateNIC(1, 1, 16)
	if f.lookup(1) != a {
		t.Fatal("NIC 1 is not attached")
	}
	var forwarded []byte
	var forwardedTo uint32
	f.SetGateway(func(dst uint32, frame []byte) error {
		forwardedTo = dst
		// Per the Gateway contract the frame is borrowed (it is recycled
		// once the gateway returns), so retaining it requires a copy.
		forwarded = append([]byte(nil), frame...)
		return nil
	})
	if err := a.Send(req(1, 777, 1, 0, "remote")); err != nil {
		t.Fatal(err)
	}
	if forwardedTo != 777 || forwarded == nil {
		t.Fatal("gateway did not receive the non-local frame")
	}
	m, _, err := wire.Unmarshal(forwarded)
	if err != nil || string(m.Payload) != "remote" {
		t.Fatalf("gateway frame: %q %v", m.Payload, err)
	}
	// Detaching the gateway restores ErrNoRoute.
	f.SetGateway(nil)
	if err := a.Send(req(1, 777, 1, 0, "x")); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestInjectDeliversAndSteers(t *testing.T) {
	f := NewFabric()
	b, _ := f.CreateNIC(2, 2, 16)
	frame, _ := wire.MarshalAppend(nil, req(1, 2, 9, 0, "injected"))
	if err := f.Inject(frame); err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < b.NumFlows(); i++ {
		fl, _ := b.Flow(i)
		if raw, ok := fl.TryRecv(); ok {
			m, _, _ := wire.Unmarshal(raw)
			if string(m.Payload) == "injected" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("injected frame not delivered")
	}
	// Responses steer by FlowID.
	resp := &wire.Message{Header: wire.Header{Kind: wire.KindResponse, FlowID: 1, DstAddr: 2}}
	respFrame, _ := wire.MarshalAppend(nil, resp)
	if err := f.Inject(respFrame); err != nil {
		t.Fatal(err)
	}
	fl, _ := b.Flow(1)
	if _, ok := fl.RecvResponse(make(chan struct{})); !ok {
		t.Fatal("injected response not steered to flow 1")
	}
	// Unknown destination and garbage frames are errors.
	if err := f.Inject(frameTo(t, 99)); err != ErrNoRoute {
		t.Fatalf("inject to unknown addr: %v", err)
	}
	if err := f.Inject(make([]byte, wire.CacheLineSize)); err == nil {
		t.Fatal("garbage frame injected successfully")
	}
}

func TestInjectFullRingCountsDrops(t *testing.T) {
	f := NewFabric()
	b, err := f.CreateNIC(2, 1, 2) // tiny RX ring
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 5; i++ {
		if err := f.Inject(frameTo(t, 2)); err != nil {
			lastErr = err
		}
	}
	if lastErr != ErrRingFull {
		t.Fatalf("err = %v, want ErrRingFull", lastErr)
	}
	// Gateway-path drops must hit the destination NIC's monitor counter,
	// matching the accounting local Send performs.
	if b.Drops.Load() != 3 {
		t.Fatalf("destination Drops = %d, want 3", b.Drops.Load())
	}
	if got := sample(b, "drop.rx.ring"); got != 3 {
		t.Fatalf("ring drops = %d, want 3", got)
	}
}

func frameTo(t *testing.T, dst uint32) []byte {
	t.Helper()
	frame, err := wire.MarshalAppend(nil, req(1, dst, 1, 0, "x"))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestFlowIndexBounds(t *testing.T) {
	f := NewFabric()
	a, _ := f.CreateNIC(1, 2, 16)
	if _, err := a.Flow(-1); err != ErrFlowRange {
		t.Fatal("negative flow accepted")
	}
	if _, err := a.Flow(2); err != ErrFlowRange {
		t.Fatal("out-of-range flow accepted")
	}
}

// sample reads one sample from nic's metrics registry.
func sample(nic *SoftNIC, name string) int64 { return nic.Metrics().Snapshot().Value(name) }

// connStats reads the conn.* counters back out of nic's metrics registry.
func connStats(nic *SoftNIC) connstate.Stats {
	s := nic.Metrics().Snapshot()
	return connstate.Stats{
		Hits:      uint64(s.Value("conn.hits")),
		Misses:    uint64(s.Value("conn.misses")),
		Evictions: uint64(s.Value("conn.evictions")),
		Opens:     uint64(s.Value("conn.opens")),
		Closes:    uint64(s.Value("conn.closes")),
	}
}

// drain pops every queued frame on every flow of n, returning them to the
// flow pools, and reports how many frames were queued.
func drain(n *SoftNIC) int {
	total := 0
	for i := 0; i < n.NumFlows(); i++ {
		fl, _ := n.Flow(i)
		for {
			frame, ok := fl.TryRecv()
			if !ok {
				break
			}
			total++
			fl.Buffers().Put(frame)
		}
	}
	return total
}

// TestSetBalancerClearsConnTable is the stale-steering regression: switching
// away from and back to static balancing must not resume steering from the
// old connection table.
func TestSetBalancerClearsConnTable(t *testing.T) {
	_, a, b := twoNICs(t)
	if err := a.Send(req(1, 2, 5, 0, "x")); err != nil {
		t.Fatal(err)
	}
	if sample(b, "conn.open") != 1 {
		t.Fatalf("open count = %d, want 1", sample(b, "conn.open"))
	}
	if err := b.SetBalancer(BalanceUniform, nil); err != nil {
		t.Fatal(err)
	}
	if sample(b, "conn.open") != 0 {
		t.Fatalf("open count after reconfiguration = %d, want 0 (stale table)", sample(b, "conn.open"))
	}
	if err := b.SetBalancer(BalanceStatic, nil); err != nil {
		t.Fatal(err)
	}
	// The same connection id must be treated as first contact: a fresh open,
	// not a hit on a stale entry.
	before := connStats(b)
	if err := a.Send(req(1, 2, 5, 0, "x")); err != nil {
		t.Fatal(err)
	}
	after := connStats(b)
	if after.Opens != before.Opens+1 || after.Hits != before.Hits {
		t.Fatalf("reconfigured NIC reused stale entry: before=%+v after=%+v", before, after)
	}
	drain(b)
}

// TestFabricConnCacheThrash pins the direct-mapped conflict ping-pong on the
// functional substrate with exact monitor counters, mirroring nicmodel's
// TestConnectionManagerThrash: two connection ids aliasing one slot
// alternate miss, re-cache, evict — and the missed frames carry the wire
// mark.
func TestFabricConnCacheThrash(t *testing.T) {
	f := NewFabric()
	a, err := f.CreateNIC(1, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.CreateNICConns(2, 2, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// First contact opens both; conn 5 displaces conn 1 (same LSBs, size-4
	// cache): eviction #1.
	for _, conn := range []uint32{1, 5} {
		if err := a.Send(req(1, 2, conn, 0, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if st := connStats(b); st.Opens != 2 || st.Evictions != 1 || st.Misses != 0 {
		t.Fatalf("stats after opens = %+v", st)
	}
	drain(b)
	// Alternating lookups ping-pong: every one a re-caching miss.
	for round := 0; round < 3; round++ {
		for _, conn := range []uint32{1, 5} {
			if err := a.Send(req(1, 2, conn, 0, "x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := connStats(b)
	if st.Hits != 0 || st.Misses != 6 || st.Evictions != 7 {
		t.Fatalf("stats = %+v, want 0 hits / 6 misses / 7 evictions", st)
	}
	// Every thrash-phase frame was stamped with the conn-miss mark.
	missed := 0
	for i := 0; i < b.NumFlows(); i++ {
		fl, _ := b.Flow(i)
		for {
			frame, ok := fl.TryRecv()
			if !ok {
				break
			}
			m, _, err := wire.Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			if m.ConnMissed() {
				missed++
			}
			fl.Buffers().Put(frame)
		}
	}
	if missed != 6 {
		t.Fatalf("conn-miss-marked frames = %d, want 6", missed)
	}
	// A repeated send on the most recent connection hits: no mark, no evict.
	if err := a.Send(req(1, 2, 5, 0, "x")); err != nil {
		t.Fatal(err)
	}
	if st := connStats(b); st.Hits != 1 || st.Evictions != 7 {
		t.Fatalf("stats after hit = %+v", st)
	}
	drain(b)
}

// TestDisconnectRetiresEntry covers close propagation at the fabric layer: a
// KindDisconnect control frame retires the connection's steering state, is
// never delivered to a ring, and an open/close churn loop holds the table at
// its steady-state size (the boundedness the unbounded map lacked).
func TestDisconnectRetiresEntry(t *testing.T) {
	_, a, b := twoNICs(t)
	if err := a.Send(req(1, 2, 9, 0, "x")); err != nil {
		t.Fatal(err)
	}
	if sample(b, "conn.open") != 1 {
		t.Fatalf("open count = %d, want 1", sample(b, "conn.open"))
	}
	drain(b)
	disc := &wire.Message{Header: wire.Header{
		Kind: wire.KindDisconnect, ConnID: 9, SrcAddr: 1, DstAddr: 2,
	}}
	if err := a.Send(disc); err != nil {
		t.Fatal(err)
	}
	if sample(b, "conn.open") != 0 {
		t.Fatalf("open count after disconnect = %d, want 0", sample(b, "conn.open"))
	}
	if got := drain(b); got != 0 {
		t.Fatalf("disconnect control frame delivered to a ring (%d frames)", got)
	}
	// Retiring an unknown connection is an idempotent no-op.
	if err := a.Send(disc); err != nil {
		t.Fatal(err)
	}
	// Churn: the table returns to steady state every cycle instead of
	// growing without bound.
	for i := 0; i < 200; i++ {
		conn := uint32(100 + i)
		if err := a.Send(req(1, 2, conn, 0, "x")); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(&wire.Message{Header: wire.Header{
			Kind: wire.KindDisconnect, ConnID: conn, SrcAddr: 1, DstAddr: 2,
		}}); err != nil {
			t.Fatal(err)
		}
		if got := sample(b, "conn.open"); got != 0 {
			t.Fatalf("iteration %d: open count = %d, want 0", i, got)
		}
	}
	drain(b)
}
