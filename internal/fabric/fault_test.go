package fabric

import (
	"testing"

	"dagger/internal/faults"
	"dagger/internal/wire"
)

// faultNICs builds a NIC pair with a single destination flow (so every frame
// lands in a known ring) and installs an injector built from rates on the
// destination's admission stage.
func faultNICs(t *testing.T, rates faults.Rates) (*SoftNIC, *SoftNIC, *Flow) {
	t.Helper()
	f := NewFabric()
	src, err := f.CreateNIC(1, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := f.CreateNIC(2, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.Config{Seed: 1, Rates: rates})
	if err != nil {
		t.Fatal(err)
	}
	dst.SetFaultInjector(inj)
	fl, err := dst.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	return src, dst, fl
}

// faultCount reads one of the stage's fault.* counters the way every
// out-of-package reader does: through the NIC's registry.
func faultCount(n *SoftNIC, name string) int64 {
	return n.Metrics().Snapshot().Value("fault." + name)
}

func drainRPCIDs(t *testing.T, fl *Flow) []uint64 {
	t.Helper()
	var ids []uint64
	for {
		frame, ok := fl.TryRecv()
		if !ok {
			return ids
		}
		h, err := wire.ParseHeader(frame)
		if err != nil {
			t.Fatalf("delivered frame unparseable: %v", err)
		}
		ids = append(ids, h.RPCID)
		fl.Buffers().Put(frame)
	}
}

// Verdict semantics (ordering, aging, release, counting) are pinned once, in
// internal/faults' Stage test. The tests here cover what the fabric's sink
// adds: pooled frames are recycled on every path, copies are real buffers,
// corruption is caught by the real checksum, and the NIC's own ledgers stay
// separate from the stage's.

// A dropping stage is a silent success to the sender — Send returns nil, the
// ring stays empty, and every frame buffer goes back to the pool.
func TestFaultDropIsSilentToSender(t *testing.T) {
	src, dst, fl := faultNICs(t, faults.Rates{Drop: faults.RateDenominator})
	const n = 20
	for i := 0; i < n; i++ {
		m := req(1, 2, 5, 0, "payload")
		m.RPCID = uint64(i + 1)
		if err := src.Send(m); err != nil {
			t.Fatalf("send %d through all-drop stage: %v", i, err)
		}
	}
	if ids := drainRPCIDs(t, fl); len(ids) != 0 {
		t.Fatalf("all-drop stage delivered %d frames", len(ids))
	}
	if got := faultCount(dst, "dropped"); got != n {
		t.Fatalf("fault.dropped = %d, want %d", got, n)
	}
	if gets, puts := fl.Buffers().Loans(); gets != puts {
		t.Fatalf("dropped frames leaked buffers: %d gets, %d puts", gets, puts)
	}
	// RPCsIn is NIC ingress (the frame did arrive — the chaos plane ate it
	// after admission), while ring-overflow Drops stays untouched: fault
	// losses and capacity losses are separate ledgers.
	if dst.RPCsIn.Load() != n || dst.Drops.Load() != 0 {
		t.Fatalf("RPCsIn=%d Drops=%d after faults-only losses, want %d/0",
			dst.RPCsIn.Load(), dst.Drops.Load(), n)
	}
}

// A duplicating stage's copy is an independent pooled buffer that parses
// identically (header checksum included) and is recycled like the original.
func TestFaultDuplicateCopiesArePooledFrames(t *testing.T) {
	src, dst, fl := faultNICs(t, faults.Rates{Duplicate: faults.RateDenominator})
	const n = 10
	for i := 0; i < n; i++ {
		m := req(1, 2, 5, 0, "payload")
		m.RPCID = uint64(i + 1)
		if err := src.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	ids := drainRPCIDs(t, fl)
	if len(ids) != 2*n {
		t.Fatalf("delivered %d frames, want %d", len(ids), 2*n)
	}
	if got := faultCount(dst, "duplicated"); got != n {
		t.Fatalf("fault.duplicated = %d, want %d", got, n)
	}
	if gets, puts := fl.Buffers().Loans(); gets != puts {
		t.Fatalf("duplicate copies leaked buffers: %d gets, %d puts", gets, puts)
	}
}

// A corrupting stage flips a covered header bit and the real checksum check
// catches every flip: corrupted frames are dropped and counted, never ring'd.
func TestFaultCorruptCaughtByChecksum(t *testing.T) {
	src, dst, fl := faultNICs(t, faults.Rates{Corrupt: faults.RateDenominator})
	const n = 50
	for i := 0; i < n; i++ {
		m := req(1, 2, 5, 0, "payload")
		m.RPCID = uint64(i + 1)
		if err := src.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if ids := drainRPCIDs(t, fl); len(ids) != 0 {
		t.Fatalf("corrupted frames reached the ring: %d delivered", len(ids))
	}
	if c, d := faultCount(dst, "corrupted"), faultCount(dst, "corrupt.dropped"); c != n || d != n {
		t.Fatalf("fault.corrupted=%d fault.corrupt.dropped=%d, want %d/%d (every flip caught)", c, d, n, n)
	}
	if gets, puts := fl.Buffers().Loans(); gets != puts {
		t.Fatalf("corrupt drops leaked buffers: %d gets, %d puts", gets, puts)
	}
}

// Held (delayed) frames release on FlushFaults, and uninstalling the injector
// releases them too — reconfiguration never strands pool loans.
func TestFaultDelayHoldAndRelease(t *testing.T) {
	src, dst, fl := faultNICs(t, faults.Rates{Delay: faults.RateDenominator})
	m := req(1, 2, 5, 0, "held")
	m.RPCID = 42
	if err := src.Send(m); err != nil {
		t.Fatal(err)
	}
	if ids := drainRPCIDs(t, fl); len(ids) != 0 {
		t.Fatalf("delayed frame delivered before release: %v", ids)
	}
	if got := faultCount(dst, "delayed"); got != 1 {
		t.Fatalf("fault.delayed = %d, want 1", got)
	}
	dst.FlushFaults()
	if ids := drainRPCIDs(t, fl); len(ids) != 1 || ids[0] != 42 {
		t.Fatalf("flush released %v, want [42]", ids)
	}

	// Second hold, released by uninstalling the stage.
	m2 := req(1, 2, 5, 0, "held2")
	m2.RPCID = 43
	if err := src.Send(m2); err != nil {
		t.Fatal(err)
	}
	dst.SetFaultInjector(nil)
	if ids := drainRPCIDs(t, fl); len(ids) != 1 || ids[0] != 43 {
		t.Fatalf("uninstall released %v, want [43]", ids)
	}
	if gets, puts := fl.Buffers().Loans(); gets != puts {
		t.Fatalf("held frames leaked buffers: %d gets, %d puts", gets, puts)
	}
}

// Closing a NIC whose fault stage still holds frames recycles them instead of
// stranding pool loans.
func TestFaultCloseRecyclesHeldFrames(t *testing.T) {
	src, dst, fl := faultNICs(t, faults.Rates{Delay: faults.RateDenominator})
	for i := 0; i < 3; i++ {
		m := req(1, 2, 5, 0, "held")
		m.RPCID = uint64(i + 1)
		if err := src.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	dst.Close()
	// Frames the stage had already released into the ring stay with the
	// consumer; drain them, then every loan must be back.
	drainRPCIDs(t, fl)
	if gets, puts := fl.Buffers().Loans(); gets != puts {
		t.Fatalf("close stranded held frames: %d gets, %d puts", gets, puts)
	}
}

// A frame whose checksum byte was overwritten with 0x00 is corrupt, not
// "unchecked": arriving through Inject it is recycled to the pool and never
// reaches a ring.
func TestInjectRejectsZeroedChecksum(t *testing.T) {
	f := NewFabric()
	dst, err := f.CreateNIC(2, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	m := req(1, 2, 5, 0, "payload")
	frame, err := wire.MarshalAppend(f.Buffers().Get(m.WireSize())[:0], m)
	if err != nil {
		t.Fatal(err)
	}
	if frame[37] == 0 {
		t.Fatal("sample frame's CRC is 0; zeroing it would not corrupt it")
	}
	frame[37] = 0
	if err := f.Inject(frame); err != wire.ErrBadChecksum {
		t.Fatalf("Inject(zeroed checksum) = %v, want ErrBadChecksum", err)
	}
	fl, _ := dst.Flow(0)
	if _, ok := fl.TryRecv(); ok {
		t.Fatal("frame with a zeroed checksum reached a ring")
	}
	if gets, puts := f.Buffers().Loans(); gets != puts {
		t.Fatalf("rejected frame not recycled: %d gets, %d puts", gets, puts)
	}
	if dst.RPCsIn.Load() != 0 {
		t.Fatalf("rejected frame counted as ingress: rpc.in = %d", dst.RPCsIn.Load())
	}
}
