package nicmodel

import (
	"fmt"
	"testing"
	"testing/quick"

	"dagger/internal/dataplane"
	"dagger/internal/sim"
	"dagger/internal/wire"
)

func TestConnectionManagerOpenLookupClose(t *testing.T) {
	cm := NewConnectionManager(64)
	tup := ConnTuple{SrcFlow: 3, DestAddr: 0x0A000001, LoadBalancer: dataplane.SteerStatic}
	if err := cm.Open(7, tup); err != nil {
		t.Fatal(err)
	}
	got, penalty, err := cm.Lookup(7)
	if err != nil || penalty != 0 {
		t.Fatalf("lookup: %v penalty %v", err, penalty)
	}
	if got != tup {
		t.Fatalf("tuple = %+v, want %+v", got, tup)
	}
	if err := cm.Close(7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cm.Lookup(7); err == nil {
		t.Fatal("lookup of closed connection succeeded")
	}
}

func TestConnectionManagerDoubleOpenClose(t *testing.T) {
	cm := NewConnectionManager(16)
	if err := cm.Open(1, ConnTuple{}); err != nil {
		t.Fatal(err)
	}
	if err := cm.Open(1, ConnTuple{}); err == nil {
		t.Fatal("double open succeeded")
	}
	if err := cm.Close(2); err == nil {
		t.Fatal("close of unopened connection succeeded")
	}
}

func TestConnectionManagerConflictMiss(t *testing.T) {
	cm := NewConnectionManager(4) // ids 1 and 5 conflict (same LSBs)
	a := ConnTuple{SrcFlow: 1}
	b := ConnTuple{SrcFlow: 2}
	if err := cm.Open(1, a); err != nil {
		t.Fatal(err)
	}
	if err := cm.Open(5, b); err != nil {
		t.Fatal(err)
	}
	// id 5 displaced id 1 in the direct-mapped slot; looking up 1 must
	// miss to host memory with a penalty, then be re-cached.
	got, penalty, err := cm.Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	if penalty != HostLookupPenalty {
		t.Fatalf("penalty = %v, want %v", penalty, HostLookupPenalty)
	}
	if got != a {
		t.Fatalf("tuple = %+v, want %+v", got, a)
	}
	// Now 1 is cached; 5 misses.
	if _, p, _ := cm.Lookup(1); p != 0 {
		t.Fatal("re-cached entry still misses")
	}
	if _, p, _ := cm.Lookup(5); p != HostLookupPenalty {
		t.Fatal("displaced entry should miss")
	}
	if cm.HitRate() >= 1 || cm.HitRate() <= 0 {
		t.Fatalf("hit rate = %v", cm.HitRate())
	}
}

// TestConnectionManagerThrash pins the direct-mapped conflict ping-pong with
// exact monitor counters: two ids aliasing one slot alternate miss →
// re-cache → evict on every access (the degradation mode the connscale
// experiment measures past cache capacity).
func TestConnectionManagerThrash(t *testing.T) {
	cm := NewConnectionManager(4)
	a := ConnTuple{SrcFlow: 1}
	b := ConnTuple{SrcFlow: 2}
	if err := cm.Open(1, a); err != nil {
		t.Fatal(err)
	}
	if err := cm.Open(5, b); err != nil { // displaces id 1: eviction #1
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, p, err := cm.Lookup(1); err != nil || p != HostLookupPenalty {
			t.Fatalf("round %d: lookup(1) penalty=%v err=%v", i, p, err)
		}
		if _, p, err := cm.Lookup(5); err != nil || p != HostLookupPenalty {
			t.Fatalf("round %d: lookup(5) penalty=%v err=%v", i, p, err)
		}
	}
	st := cm.Stats()
	if st.Hits != 0 || st.Misses != 6 || st.Evictions != 7 || st.Opens != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 6 misses / 7 evictions / 2 opens", st)
	}
	// Break the ping-pong: the most recently re-cached id now hits for free.
	if _, p, err := cm.Lookup(5); err != nil || p != 0 {
		t.Fatalf("re-cached lookup penalty=%v err=%v", p, err)
	}
	if st := cm.Stats(); st.Hits != 1 || st.Evictions != 7 {
		t.Fatalf("stats after hit = %+v", st)
	}
}

// Property: with any open/lookup sequence, Lookup always returns the tuple
// most recently opened for that id, regardless of cache conflicts.
func TestConnectionManagerCoherenceProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		cm := NewConnectionManager(8)
		model := map[uint32]ConnTuple{}
		for i, raw := range ids {
			id := uint32(raw % 32)
			if _, open := model[id]; !open {
				tup := ConnTuple{SrcFlow: uint16(i)}
				if err := cm.Open(id, tup); err != nil {
					return false
				}
				model[id] = tup
			} else {
				got, _, err := cm.Lookup(id)
				if err != nil || got != model[id] {
					return false
				}
			}
		}
		return cm.OpenCount() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionManagerLimits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized connection cache did not panic")
		}
	}()
	NewConnectionManager(MaxCachedConnections + 1)
}

func TestBalancerUniformRoundRobin(t *testing.T) {
	b := NewBalancer(dataplane.SteerUniform, 4)
	counts := make([]int, 4)
	for i := 0; i < 100; i++ {
		counts[b.Pick(Steer{})]++
	}
	for f, c := range counts {
		if c != 25 {
			t.Fatalf("flow %d got %d, want 25", f, c)
		}
	}
}

func TestBalancerStatic(t *testing.T) {
	b := NewBalancer(dataplane.SteerStatic, 4)
	for f := uint16(0); f < 4; f++ {
		if got := b.Pick(Steer{ConnFlow: f}); got != f {
			t.Fatalf("static pick = %d, want %d", got, f)
		}
	}
	// Out-of-range conn flow wraps rather than panicking.
	if got := b.Pick(Steer{ConnFlow: 7}); got != 3 {
		t.Fatalf("wrapped pick = %d, want 3", got)
	}
}

func TestBalancerObjectLevelAffinity(t *testing.T) {
	b := NewBalancer(dataplane.SteerKeyHash, 8)
	// Same key always lands on the same flow (MICA's requirement, §5.7).
	k := []byte("user:42")
	first := b.Pick(Steer{Key: k})
	for i := 0; i < 50; i++ {
		if b.Pick(Steer{Key: k}) != first {
			t.Fatal("object-level steering not stable for a key")
		}
	}
	// Different keys spread across flows.
	seen := map[uint16]bool{}
	for i := 0; i < 200; i++ {
		seen[b.Pick(Steer{Key: []byte(fmt.Sprintf("key-%d", i))})] = true
	}
	if len(seen) < 6 {
		t.Fatalf("object-level steering used only %d/8 flows", len(seen))
	}
}

func TestHCCHitMiss(t *testing.T) {
	h := NewHCC()
	if p := h.Access(0x1000); p != HCCMissPenalty {
		t.Fatalf("cold access penalty = %v", p)
	}
	if p := h.Access(0x1000); p != 0 {
		t.Fatalf("warm access penalty = %v", p)
	}
	if p := h.Access(0x1008); p != 0 {
		t.Fatal("same-line access missed")
	}
	if h.HitRate() <= 0 || h.HitRate() >= 1 {
		t.Fatalf("hit rate = %v", h.HitRate())
	}
}

func TestHCCConflict(t *testing.T) {
	h := NewHCC()
	a := uint64(0)
	b := a + HCCSizeBytes // maps to the same direct-mapped slot
	h.Access(a)
	h.Access(b)
	if p := h.Access(a); p != HCCMissPenalty {
		t.Fatal("conflicting line should have been evicted")
	}
}

func TestHardConfigValidation(t *testing.T) {
	for _, size := range []int{1, 65536, MaxCachedConnections} {
		if err := (HardConfig{ConnCacheSize: size}).Validate(); err != nil {
			t.Errorf("cache size %d: %v", size, err)
		}
	}
	for _, size := range []int{-1, 0, MaxCachedConnections + 1} {
		if err := (HardConfig{ConnCacheSize: size}).Validate(); err == nil {
			t.Errorf("cache size %d validated", size)
		}
		if _, err := NewNIC(sim.NewEngine(), HardConfig{ConnCacheSize: size}); err == nil {
			t.Errorf("NewNIC accepted cache size %d", size)
		}
	}
}

func newTestNIC(t *testing.T, eng *sim.Engine) *NIC {
	t.Helper()
	n, err := NewNIC(eng, HardConfig{ConnCacheSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNICPipelineDelay(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNIC(t, eng)
	m := &wire.Message{Payload: make([]byte, 16)} // 1 line
	d1 := n.PipelineDelay(m)
	if d1 != n.Timing.Transit+n.Timing.PerRPC {
		t.Fatalf("idle pipeline delay = %v", d1)
	}
	// Immediately-following message queues behind the first's occupancy.
	d2 := n.PipelineDelay(m)
	if d2 <= d1 {
		t.Fatalf("back-to-back delay %v not greater than idle %v", d2, d1)
	}
	// Multi-line message occupies longer.
	big := &wire.Message{Payload: make([]byte, 500)}
	eng2 := sim.NewEngine()
	n2 := newTestNIC(t, eng2)
	if n2.PipelineDelay(big) <= d1 {
		t.Fatal("multi-line RPC should take longer than single-line")
	}
}

func TestSpecTable(t *testing.T) {
	spec := SpecTable()
	if len(spec) != 7 {
		t.Fatalf("spec rows = %d, want 7", len(spec))
	}
	if spec[3].Parameter != "Max number of NIC flows" || spec[3].Value != "512" {
		t.Fatalf("flows row = %+v", spec[3])
	}
}

func TestRxPathBatching(t *testing.T) {
	rx := NewRxPath(4, 16)
	for i := 0; i < 3; i++ {
		if rx.Deliver(RxEntry{RPCID: uint64(i)}) {
			t.Fatalf("batch ready after %d entries", i+1)
		}
	}
	if !rx.Deliver(RxEntry{RPCID: 3}) {
		t.Fatal("4th entry did not complete the batch")
	}
	if len(rx.buf) != 0 || rx.Pending() != 4 {
		t.Fatalf("buffered=%d pending=%d", len(rx.buf), rx.Pending())
	}
	got := rx.Complete(0)
	if len(got) != 4 {
		t.Fatalf("completed %d", len(got))
	}
	for i, e := range got {
		if e.RPCID != uint64(i) {
			t.Fatal("completion order broken")
		}
	}
	if rx.Batches.Load() != 1 || rx.Delivered.Load() != 4 {
		t.Fatalf("counters: batches=%d delivered=%d", rx.Batches.Load(), rx.Delivered.Load())
	}
}

func TestRxPathFlushPartialBatch(t *testing.T) {
	rx := NewRxPath(4, 16)
	rx.Deliver(RxEntry{RPCID: 1})
	if !rx.Flush() {
		t.Fatal("flush of partial batch failed")
	}
	if rx.Flush() {
		t.Fatal("flush of empty buffer reported work")
	}
	if got := rx.Complete(0); len(got) != 1 || got[0].RPCID != 1 {
		t.Fatalf("flush delivery: %v", got)
	}
}

func TestRxPathOverflowDrops(t *testing.T) {
	rx := NewRxPath(2, 2)
	rx.Deliver(RxEntry{RPCID: 1})
	rx.Deliver(RxEntry{RPCID: 2}) // batch -> pending, buffer empty
	if !rx.Deliver(RxEntry{RPCID: 3}) {
		// 3rd entry buffered; 4th would exceed cap (2 pending + ...)
		t.Log("third buffered without batch")
	}
	dropped := rx.Dropped.Load()
	rx.Deliver(RxEntry{RPCID: 4})
	if rx.Dropped.Load() <= dropped {
		t.Fatal("overflow did not drop")
	}
}

// TestRxPathCongestionMarking fills an RX buffer without draining: entries
// admitted below half occupancy arrive clean, entries at or past it carry
// the mark and a hint agreeing with dataplane.Mark on the same depth.
func TestRxPathCongestionMarking(t *testing.T) {
	const capEntries = 16
	rx := NewRxPath(1, capEntries) // batch 1: every entry goes straight to pending
	for i := 0; i < capEntries; i++ {
		rx.Deliver(RxEntry{RPCID: uint64(i)})
	}
	got := rx.Complete(0)
	if len(got) != capEntries {
		t.Fatalf("delivered %d entries", len(got))
	}
	for i, e := range got {
		wantMark := dataplane.Mark(i, capEntries) // entry i admitted at depth i
		if e.Marked != wantMark {
			t.Fatalf("entry %d marked=%v, want %v", i, e.Marked, wantMark)
		}
		if wantMark {
			if want := dataplane.OccupancyHint(i, capEntries); e.Hint != want {
				t.Fatalf("entry %d hint=%d, want %d", i, e.Hint, want)
			}
		} else if e.Hint != 0 {
			t.Fatalf("clean entry %d carries hint %d", i, e.Hint)
		}
	}
	if rx.Marked.Load() != capEntries/2 {
		t.Fatalf("Marked = %d, want %d", rx.Marked.Load(), capEntries/2)
	}
}

func TestRxPathCompleteBounded(t *testing.T) {
	rx := NewRxPath(1, 8)
	for i := 0; i < 5; i++ {
		rx.Deliver(RxEntry{RPCID: uint64(i)})
	}
	if got := rx.Complete(2); len(got) != 2 {
		t.Fatalf("bounded complete = %d", len(got))
	}
	if rx.Pending() != 3 {
		t.Fatalf("pending = %d", rx.Pending())
	}
}
