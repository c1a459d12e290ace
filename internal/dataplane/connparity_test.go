// Cross-substrate connection-state parity: the functional fabric's bounded
// connection cache and the timing model's ConnectionManager are both thin
// adapters over internal/connstate, so the same connection trace — opens on
// first contact, lookups, closes — must produce byte-identical slot
// decisions: the same per-step hit/miss/eviction verdicts, the same steering
// flows, and the same open population. A divergence means one substrate grew
// its own cache geometry again.
package dataplane_test

import (
	"math/rand"
	"testing"

	"dagger/internal/connstate"
	"dagger/internal/dataplane"
	"dagger/internal/fabric"
	"dagger/internal/nicmodel"
	"dagger/internal/wire"
)

// connTraceOp is one step of the seeded connection trace: a request on a
// connection id, or a close of it.
type connTraceOp struct {
	connID uint32
	close  bool
}

func connTrace(seed int64, n int) []connTraceOp {
	rng := rand.New(rand.NewSource(seed))
	open := map[uint32]bool{}
	ops := make([]connTraceOp, 0, n)
	for len(ops) < n {
		id := uint32(rng.Intn(24)) // three times the cache size: plenty of aliasing
		if open[id] && rng.Intn(8) == 0 {
			ops = append(ops, connTraceOp{connID: id, close: true})
			delete(open, id)
			continue
		}
		open[id] = true
		ops = append(ops, connTraceOp{connID: id})
	}
	return ops
}

// TestConnCacheParity replays one seeded connection trace through a real
// fabric NIC (size-8 connection cache, static balancing) and through the
// timing stack's ConnectionManager (size-8), asserting byte-identical
// decisions at every step: hit/miss/eviction/open/close counter deltas, the
// steered flow vs the cached tuple's flow, the per-frame wire.FlagConnMiss
// stamp vs the sim.Time penalty, and the open population after closes.
func TestConnCacheParity(t *testing.T) {
	const cacheSize = 8

	fab := fabric.NewFabric()
	src, err := fab.CreateNIC(paritySrcAddr, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := fab.CreateNICConns(parityDstAddr, parityFlows, 64, cacheSize)
	if err != nil {
		t.Fatal(err)
	}

	cm := nicmodel.NewConnectionManager(cacheSize)
	// Mirror the fabric's first-contact rule with the same dataplane
	// primitive: unknown connections are assigned round-robin and opened.
	var rr uint32

	prev := connstate.Stats{}
	cmPrev := connstate.Stats{}
	for i, op := range connTrace(46, 600) {
		if op.close {
			// Functional: the close propagates as a disconnect control frame.
			if err := src.Send(&wire.Message{Header: wire.Header{
				Kind: wire.KindDisconnect, ConnID: op.connID,
				SrcAddr: paritySrcAddr, DstAddr: parityDstAddr,
			}}); err != nil {
				t.Fatalf("op %d: disconnect: %v", i, err)
			}
			// Timing: the same close against the ConnectionManager.
			if err := cm.Close(op.connID); err != nil {
				t.Fatalf("op %d: cm close: %v", i, err)
			}
		} else {
			m := &wire.Message{Header: wire.Header{
				Kind: wire.KindRequest, ConnID: op.connID,
				SrcAddr: paritySrcAddr, DstAddr: parityDstAddr,
			}}
			if err := src.Send(m); err != nil {
				t.Fatalf("op %d: send: %v", i, err)
			}
			gotFlow, gotMiss := recvConnFrame(t, dst)

			var wantFlow uint16
			wantMiss := false
			if tup, penalty, err := cm.Lookup(op.connID); err == nil {
				wantFlow = tup.SrcFlow
				wantMiss = penalty != 0
				if wantMiss && penalty != nicmodel.HostLookupPenalty {
					t.Fatalf("op %d: penalty %v is neither 0 nor HostLookupPenalty", i, penalty)
				}
			} else {
				// First contact: both substrates assign round-robin and open.
				wantFlow = dataplane.RoundRobin(rr, parityFlows)
				rr++
				if err := cm.Open(op.connID, nicmodel.ConnTuple{SrcFlow: wantFlow}); err != nil {
					t.Fatalf("op %d: cm open: %v", i, err)
				}
			}
			if gotFlow != wantFlow {
				t.Fatalf("op %d (conn %d): fabric steered to flow %d, nicmodel to %d",
					i, op.connID, gotFlow, wantFlow)
			}
			if gotMiss != wantMiss {
				t.Fatalf("op %d (conn %d): fabric miss=%v, nicmodel miss=%v",
					i, op.connID, gotMiss, wantMiss)
			}
		}

		// Counter deltas must match step for step, not just in aggregate.
		cur, cmCur := connStats(dst), cm.Stats()
		if d, cd := delta(prev, cur), delta(cmPrev, cmCur); d != cd {
			t.Fatalf("op %d (conn %d, close=%v): fabric delta %+v, nicmodel delta %+v",
				i, op.connID, op.close, d, cd)
		}
		prev, cmPrev = cur, cmCur

		if open := dst.Metrics().Snapshot().Value("conn.open"); open != int64(cm.OpenCount()) {
			t.Fatalf("op %d: open population diverged: fabric %d, nicmodel %d",
				i, open, cm.OpenCount())
		}
	}

	// The trace must actually exercise every decision kind.
	final := connStats(dst)
	if final.Hits == 0 || final.Misses == 0 || final.Evictions == 0 || final.Closes == 0 {
		t.Fatalf("trace did not exercise the full policy: %+v", final)
	}
}

// recvConnFrame pops the single delivered frame off dst, returning the flow
// it was steered to and whether it carries the conn-miss stamp.
func recvConnFrame(t *testing.T, dst *fabric.SoftNIC) (uint16, bool) {
	t.Helper()
	picked := -1
	miss := false
	for i := 0; i < dst.NumFlows(); i++ {
		fl, err := dst.Flow(i)
		if err != nil {
			t.Fatal(err)
		}
		if frame, ok := fl.TryRecv(); ok {
			if picked != -1 {
				t.Fatalf("frame delivered to flows %d and %d", picked, i)
			}
			h, err := wire.ParseHeader(frame)
			if err != nil {
				t.Fatal(err)
			}
			picked = i
			miss = h.ConnMissed()
			fl.Buffers().Put(frame)
		}
	}
	if picked == -1 {
		t.Fatal("frame not delivered to any flow")
	}
	return uint16(picked), miss
}

// connStats reads the conn.* counters back out of nic's metrics registry.
func connStats(nic *fabric.SoftNIC) connstate.Stats {
	s := nic.Metrics().Snapshot()
	return connstate.Stats{
		Hits:      uint64(s.Value("conn.hits")),
		Misses:    uint64(s.Value("conn.misses")),
		Evictions: uint64(s.Value("conn.evictions")),
		Opens:     uint64(s.Value("conn.opens")),
		Closes:    uint64(s.Value("conn.closes")),
	}
}

func delta(a, b connstate.Stats) connstate.Stats {
	return connstate.Stats{
		Hits:      b.Hits - a.Hits,
		Misses:    b.Misses - a.Misses,
		Evictions: b.Evictions - a.Evictions,
		Opens:     b.Opens - a.Opens,
		Closes:    b.Closes - a.Closes,
	}
}
