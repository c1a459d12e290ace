// Cross-substrate parity: the functional fabric and the timing-model NIC
// must reach byte-identical steering and shed decisions for the same inputs,
// because both are thin adapters over the same internal/dataplane policy.
// A divergence here means one substrate grew its own policy again.
package dataplane_test

import (
	"math/rand"
	"testing"
	"time"

	"dagger/internal/core"
	"dagger/internal/dataplane"
	"dagger/internal/fabric"
	"dagger/internal/nicmodel"
	"dagger/internal/sim"
	"dagger/internal/wire"
)

const (
	paritySrcAddr = 0x0A000001
	parityDstAddr = 0x0A000002
	parityFlows   = 5
	parityReqs    = 400
)

// parityReq is one element of the seeded request sequence both substrates
// consume.
type parityReq struct {
	key    []byte
	connID uint32
}

func paritySequence(seed int64) []parityReq {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]parityReq, parityReqs)
	for i := range seq {
		key := make([]byte, 1+rng.Intn(16))
		rng.Read(key)
		seq[i] = parityReq{key: key, connID: uint32(rng.Intn(8))}
	}
	return seq
}

// sendAndObserve pushes one request through the real fabric and reports which
// of the destination NIC's flows its frame landed on.
func sendAndObserve(t *testing.T, src, dst *fabric.SoftNIC, m *wire.Message) uint16 {
	t.Helper()
	if err := src.Send(m); err != nil {
		t.Fatalf("Send: %v", err)
	}
	picked := -1
	for i := 0; i < dst.NumFlows(); i++ {
		fl, err := dst.Flow(i)
		if err != nil {
			t.Fatal(err)
		}
		if frame, ok := fl.TryRecv(); ok {
			if picked != -1 {
				t.Fatalf("frame delivered to flows %d and %d", picked, i)
			}
			picked = i
			fl.Buffers().Put(frame)
		}
	}
	if picked == -1 {
		t.Fatal("frame not delivered to any flow")
	}
	return uint16(picked)
}

func parityNICs(t *testing.T, balancer fabric.Balancer, ex fabric.KeyExtractor) (src, dst *fabric.SoftNIC) {
	t.Helper()
	fab := fabric.NewFabric()
	src, err := fab.CreateNIC(paritySrcAddr, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err = fab.CreateNIC(parityDstAddr, parityFlows, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.SetBalancer(balancer, ex); err != nil {
		t.Fatal(err)
	}
	return src, dst
}

func TestSteeringParityUniform(t *testing.T) {
	src, dst := parityNICs(t, fabric.BalanceUniform, nil)
	bal := nicmodel.NewBalancer(dataplane.SteerUniform, parityFlows)
	for i, req := range paritySequence(42) {
		m := &wire.Message{Header: wire.Header{
			Kind: wire.KindRequest, ConnID: req.connID,
			SrcAddr: paritySrcAddr, DstAddr: parityDstAddr,
		}, Payload: req.key}
		got := sendAndObserve(t, src, dst, m)
		want := bal.Pick(nicmodel.Steer{})
		if got != want {
			t.Fatalf("request %d: fabric steered to flow %d, nicmodel to %d", i, got, want)
		}
	}
}

func TestSteeringParityKeyHash(t *testing.T) {
	extractor := func(payload []byte) []byte { return payload }
	src, dst := parityNICs(t, fabric.BalanceObjectLevel, extractor)
	bal := nicmodel.NewBalancer(dataplane.SteerKeyHash, parityFlows)
	for i, req := range paritySequence(43) {
		m := &wire.Message{Header: wire.Header{
			Kind: wire.KindRequest, ConnID: req.connID,
			SrcAddr: paritySrcAddr, DstAddr: parityDstAddr,
		}, Payload: req.key}
		got := sendAndObserve(t, src, dst, m)
		want := bal.Pick(nicmodel.Steer{Key: req.key})
		if got != want {
			t.Fatalf("request %d (key %x): fabric steered to flow %d, nicmodel to %d", i, req.key, got, want)
		}
	}
}

func TestSteeringParityStatic(t *testing.T) {
	src, dst := parityNICs(t, fabric.BalanceStatic, nil)
	bal := nicmodel.NewBalancer(dataplane.SteerStatic, parityFlows)
	// The timing model's connection manager assigns a flow at Open time; the
	// fabric assigns round-robin on first contact. Mirror the fabric's
	// first-contact rule with the same dataplane primitive, then let both
	// substrates steer every subsequent request from the remembered flow.
	conns := map[uint32]uint16{}
	var rr uint32
	for i, req := range paritySequence(44) {
		connFlow, known := conns[req.connID]
		if !known {
			connFlow = dataplane.RoundRobin(rr, parityFlows)
			rr++
			conns[req.connID] = connFlow
		}
		m := &wire.Message{Header: wire.Header{
			Kind: wire.KindRequest, ConnID: req.connID,
			SrcAddr: paritySrcAddr, DstAddr: parityDstAddr,
		}, Payload: req.key}
		got := sendAndObserve(t, src, dst, m)
		want := bal.Pick(nicmodel.Steer{ConnFlow: connFlow})
		if got != want {
			t.Fatalf("request %d (conn %d): fabric steered to flow %d, nicmodel to %d", i, req.connID, got, want)
		}
	}
}

// TestMarkParity drives both substrates' receive queues from empty to full
// with the same capacity and asserts byte-identical congestion verdicts: the
// fabric's per-frame FlagCongested bit and occupancy hint byte must equal the
// timing model's per-entry Marked/Hint, and both must equal the raw
// dataplane.Mark / dataplane.OccupancyHint decision on the same depth. A
// divergence means one substrate moved its mark point (e.g. marking after the
// push instead of at admission) and the ECN signal would fire at different
// loads on the two stacks.
func TestMarkParity(t *testing.T) {
	const capacity = 16

	// Functional substrate: one flow, ring depth = capacity, filled without
	// draining so frame i is admitted at ring depth i.
	fab := fabric.NewFabric()
	src, err := fab.CreateNIC(paritySrcAddr, 1, capacity)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := fab.CreateNIC(parityDstAddr, 1, capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < capacity; i++ {
		m := &wire.Message{Header: wire.Header{
			Kind: wire.KindRequest, RPCID: uint64(i),
			SrcAddr: paritySrcAddr, DstAddr: parityDstAddr,
		}}
		if err := src.Send(m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	fl, err := dst.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	fabricMarked := make([]bool, capacity)
	fabricHint := make([]uint8, capacity)
	for i := 0; i < capacity; i++ {
		frame, ok := fl.TryRecv()
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		h, err := wire.ParseHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		fabricMarked[i] = h.Congested()
		fabricHint[i] = h.Occupancy
		fl.Buffers().Put(frame)
	}

	// Timing substrate: one RX path, buffer capacity = capacity, batch 1 so
	// every Deliver immediately moves its entry to the pending set and entry
	// i is likewise admitted at depth i.
	rx := nicmodel.NewRxPath(1, capacity)
	for i := 0; i < capacity; i++ {
		rx.Deliver(nicmodel.RxEntry{RPCID: uint64(i)})
	}
	entries := rx.Complete(0)
	if len(entries) != capacity {
		t.Fatalf("rx path delivered %d of %d entries", len(entries), capacity)
	}

	marks := 0
	for i := 0; i < capacity; i++ {
		want := dataplane.Mark(i, capacity)
		var wantHint uint8
		if want {
			wantHint = dataplane.OccupancyHint(i, capacity)
		}
		if fabricMarked[i] != want || entries[i].Marked != want {
			t.Fatalf("depth %d: fabric marked=%v, nicmodel marked=%v, dataplane=%v",
				i, fabricMarked[i], entries[i].Marked, want)
		}
		if fabricHint[i] != wantHint || entries[i].Hint != wantHint {
			t.Fatalf("depth %d: fabric hint=%d, nicmodel hint=%d, dataplane=%d",
				i, fabricHint[i], entries[i].Hint, wantHint)
		}
		if want {
			marks++
		}
	}
	if marks == 0 {
		t.Fatal("no depth marked; sequence does not exercise the policy")
	}
	if got := dst.Metrics().Snapshot().Value("mark.rx.stamped"); got != int64(marks) {
		t.Fatalf("fabric flow marked %d frames, want %d", got, marks)
	}
	if got := rx.Marked.Load(); got != uint64(marks) {
		t.Fatalf("rx path marked %d entries, want %d", got, marks)
	}
}

// TestShedParity drives the same seeded (budget, queueing-delay) pairs
// through the functional server's shed decision (core.ShedDecision over wall
// timestamps) and the timing model's (nicmodel.NIC.ShedExpired over virtual
// time) and asserts identical verdicts, including exact-boundary cases.
func TestShedParity(t *testing.T) {
	type shedCase struct {
		budget    uint32
		elapsedNs int64
	}
	rng := rand.New(rand.NewSource(45))
	var cases []shedCase
	for i := 0; i < 200; i++ {
		budget := uint32(rng.Intn(100))
		elapsed := int64(rng.Intn(150_000))
		cases = append(cases, shedCase{budget, elapsed})
	}
	// Exact boundaries: elapsed == budget (shed), one ns under (keep), no
	// budget at all (never shed).
	cases = append(cases,
		shedCase{50, 50_000},
		shedCase{50, 49_999},
		shedCase{0, 1 << 40},
	)

	// Functional verdicts: wall timestamps built from a fixed base.
	base := time.Unix(1_000_000, 0)
	functional := make([]bool, len(cases))
	for i, c := range cases {
		functional[i] = core.ShedDecision(base, base.Add(time.Duration(c.elapsedNs)), c.budget)
	}

	// Timing verdicts: the same delays elapse in virtual time between arrival
	// and the NIC's shed check.
	eng := sim.NewEngine()
	nic, err := nicmodel.NewNIC(eng, nicmodel.HardConfig{ConnCacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	timing := make([]bool, 0, len(cases))
	var step func(i int)
	step = func(i int) {
		if i == len(cases) {
			return
		}
		arrival := eng.Now()
		eng.After(sim.Time(cases[i].elapsedNs), func() {
			timing = append(timing, nic.ShedExpired(arrival, cases[i].budget))
			step(i + 1)
		})
	}
	step(0)
	eng.Run()

	if len(timing) != len(cases) {
		t.Fatalf("timing stack evaluated %d of %d cases", len(timing), len(cases))
	}
	sheds := 0
	for i := range cases {
		if functional[i] != timing[i] {
			t.Fatalf("case %d (budget %dus, elapsed %dns): functional=%v timing=%v",
				i, cases[i].budget, cases[i].elapsedNs, functional[i], timing[i])
		}
		if timing[i] {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("no case shed; sequence does not exercise the policy")
	}
	if got := nic.Monitor.Sheds.Load(); got != uint64(sheds) {
		t.Fatalf("NIC shed monitor = %d, want %d", got, sheds)
	}
}
