// Cross-substrate fault parity: the functional fabric's admission fault
// stage and the timing-model RxPath's must execute byte-identical verdict
// sequences with identical semantics — same per-class counts, same surviving
// frames, same delivery order under delay/reorder/duplicate — because both
// are thin adapters over internal/faults. A divergence here means one
// substrate grew its own chaos semantics.
package dataplane_test

import (
	"testing"

	"dagger/internal/fabric"
	"dagger/internal/faults"
	"dagger/internal/metrics"
	"dagger/internal/nicmodel"
	"dagger/internal/wire"
)

const faultParityReqs = 600

func faultParityConfig() faults.Config {
	return faults.Config{
		Seed: 7,
		Rates: faults.Rates{
			Drop:      150_000,
			Duplicate: 100_000,
			Delay:     100_000,
			Reorder:   50_000,
			Corrupt:   100_000,
		},
	}
}

func TestFaultParity(t *testing.T) {
	cfg := faultParityConfig()
	plan := faults.Plan(cfg, faultParityReqs)
	counts := faults.CountClasses(plan)
	// Non-vacuity: the pinned sequence must exercise every verdict class, or
	// the parity below proves nothing about the class it skipped.
	for class := faults.Deliver; class <= faults.CorruptBit; class++ {
		if counts[class] == 0 {
			t.Fatalf("seeded plan never draws %v; sequence does not exercise the policy", class)
		}
	}

	// Functional fabric: a serial closed stream of requests through a real
	// NIC pair, the injector installed at the destination's admission point.
	fab := fabric.NewFabric()
	src, err := fab.CreateNIC(paritySrcAddr, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Ring deep enough that no admitted frame (including duplicates) is ever
	// refused: a ring-full drop is not part of the verdict sequence and
	// would desynchronize the substrates.
	dst, err := fab.CreateNIC(parityDstAddr, 1, 4*faultParityReqs)
	if err != nil {
		t.Fatal(err)
	}
	fabInj, err := faults.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst.SetFaultInjector(fabInj)
	for i := 0; i < faultParityReqs; i++ {
		m := &wire.Message{Header: wire.Header{
			Kind: wire.KindRequest, ConnID: 1, RPCID: uint64(i + 1),
			SrcAddr: paritySrcAddr, DstAddr: parityDstAddr,
		}}
		if err := src.Send(m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	dst.FlushFaults()
	fl, err := dst.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	var fabSeq []uint64
	for {
		frame, ok := fl.TryRecv()
		if !ok {
			break
		}
		h, err := wire.ParseHeader(frame)
		if err != nil {
			t.Fatalf("delivered frame %d unparseable: %v", len(fabSeq), err)
		}
		fabSeq = append(fabSeq, h.RPCID)
		fl.Buffers().Put(frame)
	}

	// Timing substrate: the same verdict sequence through an RxPath. Batch 1
	// moves every admitted entry straight to the completion set in admission
	// order, making the two delivery sequences directly comparable.
	rx := nicmodel.NewRxPath(1, 4*faultParityReqs)
	rxInj, err := faults.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx.SetFaultInjector(rxInj)
	for i := 0; i < faultParityReqs; i++ {
		rx.Deliver(nicmodel.RxEntry{RPCID: uint64(i + 1)})
	}
	rx.SetFaultInjector(nil) // releases the held entries, as FlushFaults does on the fabric
	entries := rx.Complete(0)
	rxSeq := make([]uint64, len(entries))
	for i, e := range entries {
		rxSeq[i] = e.RPCID
	}

	// Both injectors consumed the whole plan.
	if fabInj.Issued() != faultParityReqs || rxInj.Issued() != faultParityReqs {
		t.Fatalf("verdicts consumed: fabric %d, rxpath %d, want %d",
			fabInj.Issued(), rxInj.Issued(), faultParityReqs)
	}

	// Per-class execution counts: identical across substrates and equal to
	// the plan's tallies (nothing was refused by a full ring/buffer, so
	// every verdict executed).
	type tally struct{ drops, dups, delays, corrupts, corruptDrops uint64 }
	rxReg := metrics.New()
	rx.DescribeMetrics(rxReg)
	read := func(s metrics.Snapshot) tally {
		return tally{uint64(s.Value("fault.dropped")), uint64(s.Value("fault.duplicated")),
			uint64(s.Value("fault.delayed")), uint64(s.Value("fault.corrupted")),
			uint64(s.Value("fault.corrupt.dropped"))}
	}
	fabT, rxT := read(dst.Metrics().Snapshot()), read(rxReg.Snapshot())
	if fabT != rxT {
		t.Fatalf("fault counters diverged:\n  fabric %+v\n  rxpath %+v", fabT, rxT)
	}
	want := tally{
		drops:        counts[faults.Drop],
		dups:         counts[faults.Duplicate],
		delays:       counts[faults.Delay] + counts[faults.Reorder],
		corrupts:     counts[faults.CorruptBit],
		corruptDrops: counts[faults.CorruptBit],
	}
	if fabT != want {
		t.Fatalf("fault counters != plan tallies:\n  got  %+v\n  want %+v", fabT, want)
	}

	// Delivery parity: same survivors in the same order. This pins the
	// delay-aging, reorder-release, and duplicate-placement semantics
	// byte-identically, not just the counts.
	if len(fabSeq) != len(rxSeq) {
		t.Fatalf("delivered %d frames on fabric, %d on rxpath", len(fabSeq), len(rxSeq))
	}
	for i := range fabSeq {
		if fabSeq[i] != rxSeq[i] {
			t.Fatalf("delivery order diverged at %d: fabric rpc %d, rxpath rpc %d",
				i, fabSeq[i], rxSeq[i])
		}
	}
	wantDelivered := faultParityReqs - int(counts[faults.Drop]) - int(counts[faults.CorruptBit]) +
		int(counts[faults.Duplicate])
	if len(fabSeq) != wantDelivered {
		t.Fatalf("delivered %d frames, want %d (N - drops - corrupts + dups)",
			len(fabSeq), wantDelivered)
	}

	// The fault.* metrics families diff clean across substrates, like the
	// conn.*/mark.*/shed.* families.
	if diffs := metrics.Diff(
		dst.Metrics().Snapshot().Filter("fault"),
		rxReg.Snapshot().Filter("fault"),
	); len(diffs) != 0 {
		t.Fatalf("fault.* snapshots diverged: %v", diffs)
	}
}
