// Cross-substrate metrics-plane parity: both stacks now publish their
// telemetry through internal/metrics registries under shared family names
// (conn.*, shed.*, mark.*), so one seeded open/lookup/close trace plus an
// overload (ring-filling) phase and a seeded shed replay must yield
// byte-identical snapshots for those families — asserted with one
// metrics.Diff over filtered snapshots instead of per-getter comparisons.
// A non-empty diff means a substrate renamed, dropped, or double-counted a
// shared-policy counter.
package dataplane_test

import (
	"math/rand"
	"testing"
	"time"

	"dagger/internal/core"
	"dagger/internal/dataplane"
	"dagger/internal/fabric"
	"dagger/internal/metrics"
	"dagger/internal/nicmodel"
	"dagger/internal/sim"
	"dagger/internal/wire"
)

func TestMetricsSnapshotParity(t *testing.T) {
	const (
		cacheSize = 8
		markCap   = 16
	)

	// --- Connection phase: seeded open/lookup/close trace (the connparity
	// replay), fabric NIC vs ConnectionManager. ---
	fab := fabric.NewFabric()
	src, err := fab.CreateNIC(paritySrcAddr, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := fab.CreateNICConns(parityDstAddr, parityFlows, 64, cacheSize)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	nic, err := nicmodel.NewNIC(eng, nicmodel.HardConfig{ConnCacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	var rr uint32
	for i, op := range connTrace(47, 500) {
		if op.close {
			if err := src.Send(&wire.Message{Header: wire.Header{
				Kind: wire.KindDisconnect, ConnID: op.connID,
				SrcAddr: paritySrcAddr, DstAddr: parityDstAddr,
			}}); err != nil {
				t.Fatalf("op %d: disconnect: %v", i, err)
			}
			if err := nic.CM.Close(op.connID); err != nil {
				t.Fatalf("op %d: cm close: %v", i, err)
			}
			continue
		}
		if err := src.Send(&wire.Message{Header: wire.Header{
			Kind: wire.KindRequest, ConnID: op.connID,
			SrcAddr: paritySrcAddr, DstAddr: parityDstAddr,
		}}); err != nil {
			t.Fatalf("op %d: send: %v", i, err)
		}
		recvConnFrame(t, dst) // drain so ring depth stays zero (no marks here)
		if _, _, err := nic.CM.Lookup(op.connID); err != nil {
			// First contact: same round-robin assignment rule as the fabric.
			flow := dataplane.RoundRobin(rr, parityFlows)
			rr++
			if err := nic.CM.Open(op.connID, nicmodel.ConnTuple{SrcFlow: flow}); err != nil {
				t.Fatalf("op %d: cm open: %v", i, err)
			}
		}
	}

	// --- Overload phase: fill a ring of the same capacity without draining
	// on both substrates, accruing identical congestion-mark counts. A
	// separate NIC pair keeps this phase's steering out of the connection
	// counters above. ---
	markDst, err := fab.CreateNIC(parityDstAddr+1, 1, markCap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < markCap; i++ {
		if err := src.Send(&wire.Message{Header: wire.Header{
			Kind: wire.KindRequest, RPCID: uint64(i),
			SrcAddr: paritySrcAddr, DstAddr: parityDstAddr + 1,
		}}); err != nil {
			t.Fatalf("mark send %d: %v", i, err)
		}
	}
	rx := nicmodel.NewRxPath(1, markCap)
	rxReg := metrics.New()
	rx.DescribeMetrics(rxReg)
	for i := 0; i < markCap; i++ {
		rx.Deliver(nicmodel.RxEntry{RPCID: uint64(i)})
	}

	// --- Shed phase: seeded (budget, delay) cases through the functional
	// ShedDecision (wall timestamps, counted in a registry of its own — the
	// real server's sheds depend on scheduler timing) and the timing NIC's
	// ShedExpired (virtual time, counted in Monitor.Sheds). ---
	shedReg := metrics.New()
	funcSheds := shedReg.Counter("shed.expired")
	rng := rand.New(rand.NewSource(48))
	type shedCase struct {
		budget    uint32
		elapsedNs int64
	}
	var cases []shedCase
	for i := 0; i < 150; i++ {
		cases = append(cases, shedCase{uint32(rng.Intn(100)), int64(rng.Intn(150_000))})
	}
	base := time.Unix(1_000_000, 0)
	for _, c := range cases {
		if core.ShedDecision(base, base.Add(time.Duration(c.elapsedNs)), c.budget) {
			funcSheds.Inc()
		}
	}
	idx := 0
	var step func()
	step = func() {
		if idx == len(cases) {
			return
		}
		c := cases[idx]
		idx++
		arrival := eng.Now()
		eng.After(sim.Time(c.elapsedNs), func() {
			nic.ShedExpired(arrival, c.budget)
			step()
		})
	}
	step()
	eng.Run()

	// --- The acceptance assertion: one Diff over the shared families. ---
	functional := metrics.Merge(
		dst.Metrics().Snapshot().Filter("conn"),
		markDst.Metrics().Snapshot().Filter("mark"),
		shedReg.Snapshot().Filter("shed"),
	)
	timing := metrics.Merge(
		nic.Metrics().Snapshot().Filter("conn", "shed"),
		rxReg.Snapshot().Filter("mark"),
	)
	if d := metrics.Diff(functional, timing); d != "" {
		t.Fatalf("substrate snapshots diverged:\n%s", d)
	}

	// The trace must actually exercise the families, or the diff proves
	// nothing.
	for _, name := range []string{"conn.hits", "conn.misses", "conn.evictions", "conn.closes", "mark.rx.stamped", "shed.expired"} {
		if functional.Value(name) == 0 {
			t.Fatalf("family sample %s never fired; parity vacuous\nsnapshot: %+v", name, functional.Samples)
		}
	}
}

// TestMetricsParityKindStrict pins that the parity diff above is strict
// about metric kinds, not just values: a substrate exposing a shared family
// as a raw counter where the other derives it (or vice versa) must show up
// in Diff, which is why RxPath and the fabric both publish mark.rx.stamped
// as derived gauges.
func TestMetricsParityKindStrict(t *testing.T) {
	a := metrics.New()
	a.Counter("conn.hits").Add(7)
	b := metrics.New()
	b.Func("conn.hits", func() int64 { return 7 })
	if d := metrics.Diff(a.Snapshot(), b.Snapshot()); d == "" {
		t.Fatal("kind mismatch not surfaced by Diff")
	}
}
