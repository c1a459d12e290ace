package interconnect

import (
	"math"
	"testing"

	"dagger/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	good := []Config{
		{Kind: MMIO, Batch: 1},
		{Kind: Doorbell, Batch: 1},
		{Kind: DoorbellBatch, Batch: 11},
		{Kind: UPI, Batch: 4},
		{Kind: UPI, Batch: 1, AutoBatch: true},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", c.Name(), err)
		}
	}
	bad := []Config{
		{Kind: MMIO, Batch: 4},
		{Kind: Doorbell, Batch: 2},
		{Kind: UPI, Batch: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: validation passed, want error", c)
		}
	}
}

// The CPU cost model must land the single-core saturation throughputs of
// Figure 10 within 10%.
func TestSaturationMatchesFigure10(t *testing.T) {
	want := map[string]float64{ // Mrps from Fig. 10
		"MMIO":             4.2,
		"Doorbell":         4.3,
		"Doorbell, B = 3":  7.9,
		"Doorbell, B = 7":  9.9,
		"Doorbell, B = 11": 10.8,
		"UPI, B = 1":       8.1,
		"UPI, B = 4":       12.4,
	}
	for _, cfg := range Fig10Configs() {
		got := cfg.SaturationRPS() / 1e6
		paper := want[cfg.Name()]
		if math.Abs(got-paper)/paper > 0.10 {
			t.Errorf("%s: saturation %.1f Mrps, paper %.1f (>10%% off)", cfg.Name(), got, paper)
		}
	}
}

// Figure 10's ordering: UPI beats doorbell batching beats plain doorbell
// and MMIO on throughput; UPI has the lowest submission latency.
func TestInterfaceOrdering(t *testing.T) {
	upi4 := Config{Kind: UPI, Batch: 4}
	upi1 := Config{Kind: UPI, Batch: 1}
	db11 := Config{Kind: DoorbellBatch, Batch: 11}
	db1 := Config{Kind: Doorbell, Batch: 1}
	mmio := Config{Kind: MMIO, Batch: 1}

	if upi4.SaturationRPS() <= db11.SaturationRPS() {
		t.Error("UPI B=4 should out-throughput doorbell B=11")
	}
	if db11.SaturationRPS() <= db1.SaturationRPS() {
		t.Error("doorbell batching should beat plain doorbell")
	}
	if upi1.SaturationRPS() <= mmio.SaturationRPS() {
		t.Error("UPI B=1 should out-throughput MMIO")
	}
	if upi1.TxDeliver() >= mmio.TxDeliver() {
		t.Error("UPI delivery should be faster than MMIO")
	}
	if db1.TxDeliver() <= mmio.TxDeliver() {
		t.Error("doorbell submission path should be slower than MMIO")
	}
}

func TestPaperTimingConstants(t *testing.T) {
	// §4.4: UPI delivers within 400 ns, bookkeeping another 400 ns.
	if UPIDeliver != 400 || UPIBookkeep != 400 {
		t.Error("UPI constants drifted from the paper")
	}
	// §5.3: PCIe DMA 450 ns vs UPI 400 ns — UPI is "physically slightly
	// faster than PCIe".
	if PCIeDMARead <= UPIDeliver {
		t.Error("PCIe DMA read should be slower than UPI read")
	}
	if CCIPMaxOutstanding != 128 {
		t.Error("CCI-P outstanding limit should be 128")
	}
}

func TestBatchAmortization(t *testing.T) {
	prev := sim.Time(1 << 62)
	for _, b := range []int{1, 2, 4, 8, 16} {
		c := Config{Kind: UPI, Batch: b}
		cost := c.CPUPerRPC()
		if cost >= prev {
			t.Errorf("UPI B=%d cost %v not below B smaller", b, cost)
		}
		prev = cost
	}
}

func TestConfigNames(t *testing.T) {
	if (Config{Kind: DoorbellBatch, Batch: 7}).Name() != "Doorbell, B = 7" {
		t.Error("doorbell batch name")
	}
	if (Config{Kind: UPI, Batch: 1, AutoBatch: true}).Name() != "UPI, B = auto" {
		t.Error("auto batch name")
	}
}

func TestEndpointSerializes(t *testing.T) {
	eng := sim.NewEngine()
	ep := NewEndpoint(eng, 10)
	var done []sim.Time
	for i := 0; i < 5; i++ {
		ep.Admit(func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	for i, at := range done {
		want := sim.Time((i + 1) * 10)
		if at != want {
			t.Fatalf("request %d completed at %v, want %v", i, at, want)
		}
	}
}

func TestEndpointRateCap(t *testing.T) {
	// Offer 100 Mrps to an endpoint that can serve ~42 Mrps; completions
	// must be capped near the service rate.
	eng := sim.NewEngine()
	ep := NewEndpoint(eng, EndpointRPCService)
	completed := 0
	gap := sim.Time(10) // 100 Mrps offered
	var offer func()
	n := 0
	offer = func() {
		if n >= 100_000 {
			return
		}
		n++
		// An RPC crosses the endpoint twice (request + response).
		ep.Admit(func() {})
		ep.Admit(func() { completed++ })
		eng.After(gap, offer)
	}
	eng.After(0, offer)
	var atMs int
	eng.At(1*sim.Millisecond, func() { atMs = completed })
	eng.Run()
	rate := float64(atMs) / 1e-3 / 1e6 // Mrps
	if rate < 38 || rate > 45 {
		t.Fatalf("endpoint-capped rate = %.1f Mrps, want ~41.7", rate)
	}
}

func TestThreadCPUPerRPC(t *testing.T) {
	cfg := Config{Kind: UPI, Batch: 4}
	solo := ThreadCPUPerRPC(cfg, 1)
	shared := ThreadCPUPerRPC(cfg, 2)
	if solo != cfg.CPUPerRPC() {
		t.Error("solo thread cost should equal config cost")
	}
	if float64(shared) <= float64(solo) {
		t.Error("SMT sharing should inflate per-thread cost")
	}
}

func TestFig10ConfigsComplete(t *testing.T) {
	cfgs := Fig10Configs()
	if len(cfgs) != 7 {
		t.Fatalf("Fig10 variants = %d, want 7", len(cfgs))
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{MMIO: "MMIO", Doorbell: "Doorbell", DoorbellBatch: "DoorbellBatch", UPI: "UPI"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestCPUCostSplit(t *testing.T) {
	for _, cfg := range Fig10Configs() {
		tx, rx := cfg.TxCPU(), cfg.RxCPU()
		if tx+rx != cfg.CPUPerRPC() {
			t.Errorf("%s: tx+rx = %v != total %v", cfg.Name(), tx+rx, cfg.CPUPerRPC())
		}
		if tx <= rx {
			t.Errorf("%s: submission share should dominate", cfg.Name())
		}
	}
}

func TestWithBatch(t *testing.T) {
	base := Config{Kind: UPI, Batch: 1}
	b4 := base.WithBatch(4)
	if b4.Batch != 4 || base.Batch != 1 {
		t.Fatal("WithBatch should copy, not mutate")
	}
	if b4.CPUPerRPC() >= base.CPUPerRPC() {
		t.Fatal("larger batch should amortize CPU cost")
	}
}

func TestRxDeliverPerFamily(t *testing.T) {
	if (Config{Kind: UPI, Batch: 1}).RxDeliver() >= (Config{Kind: MMIO, Batch: 1}).RxDeliver() {
		t.Error("UPI receive delivery should beat PCIe")
	}
	for _, cfg := range Fig10Configs() {
		if cfg.MaxOutstanding() != CCIPMaxOutstanding {
			t.Errorf("%s: outstanding limit %d", cfg.Name(), cfg.MaxOutstanding())
		}
	}
}

func TestEndpointRejectsBadService(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero service time accepted")
		}
	}()
	NewEndpoint(sim.NewEngine(), 0)
}
