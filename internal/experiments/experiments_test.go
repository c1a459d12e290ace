package experiments

import (
	"testing"

	"dagger/internal/interconnect"
	"dagger/internal/workload"
)

// Figure 11 left: B=1 latency is flat until its knee; B=4 pays a batch-fill
// penalty at low load; auto follows the better of the two.
func TestEchoAutoBatchFollowsBest(t *testing.T) {
	lat := func(cfg interconnect.Config, mrps float64) float64 {
		return RunEcho(EchoConfig{Iface: cfg, OfferedRPS: mrps * 1e6, Requests: 40_000, Seed: 3}).MedianUs()
	}
	b1 := interconnect.Config{Kind: interconnect.UPI, Batch: 1}
	b4 := interconnect.Config{Kind: interconnect.UPI, Batch: 4}
	auto := interconnect.Config{Kind: interconnect.UPI, Batch: 4, AutoBatch: true}
	lowB1, lowB4, lowAuto := lat(b1, 2), lat(b4, 2), lat(auto, 2)
	if lowB4 <= lowB1 {
		t.Errorf("B=4 at low load (%.2f) should be slower than B=1 (%.2f): batch-fill wait", lowB4, lowB1)
	}
	if lowAuto > lowB1*1.1 {
		t.Errorf("auto at low load (%.2f) should track B=1 (%.2f)", lowAuto, lowB1)
	}
	// At high load auto must sustain B=4-level throughput.
	hiAuto := RunEcho(EchoConfig{Iface: auto, OfferedRPS: 11e6, Requests: 60_000, Seed: 4})
	if hiAuto.Mrps() < 10.5 {
		t.Errorf("auto at high load achieved %.1f Mrps, want B=4 level", hiAuto.Mrps())
	}
}

// §5.2: best-effort mode reaches ~16.5 Mrps single-core.
func TestEchoBestEffort(t *testing.T) {
	r := RunEcho(EchoConfig{
		Iface:    interconnect.Config{Kind: interconnect.UPI, Batch: 4},
		Requests: 80_000, BestEffort: true, Seed: 6,
	})
	if r.Mrps() < 15 || r.Mrps() > 18.5 {
		t.Errorf("best-effort %.1f Mrps, paper ~16.5", r.Mrps())
	}
	if r.Dropped == 0 {
		t.Error("best-effort run produced no drops")
	}
}

// ToR adds ~0.3us to the round trip.
func TestEchoToRDelay(t *testing.T) {
	cfg := interconnect.Config{Kind: interconnect.UPI, Batch: 1}
	loop := RunEcho(EchoConfig{Iface: cfg, OfferedRPS: 2e6, Requests: 40_000, Seed: 7})
	tor := RunEcho(EchoConfig{Iface: cfg, OfferedRPS: 2e6, Requests: 40_000, ToR: true, Seed: 7})
	diff := tor.MedianUs() - loop.MedianUs()
	if diff < 0.2 || diff > 0.45 {
		t.Errorf("ToR RTT penalty %.2fus, want ~0.3", diff)
	}
}

// Figure 12: KVS throughputs match the paper (which calibrated the service
// times) and the MICA-vs-memcached relationships hold.
func TestKVSThroughputShape(t *testing.T) {
	run := func(sys KVSSystem, mix workload.Mix) *KVSResult {
		return RunKVS(KVSConfig{
			System: sys, Dataset: workload.Tiny, Mix: mix,
			Requests: 40_000, Populate: 50_000, Seed: 9,
		})
	}
	mcdWI := run(Memcached, workload.WriteIntensive)
	mcdRI := run(Memcached, workload.ReadIntensive)
	micaWI := run(MICA, workload.WriteIntensive)
	micaRI := run(MICA, workload.ReadIntensive)
	if m := mcdWI.Mrps(); m < 0.5 || m > 0.75 {
		t.Errorf("mcd 50%%GET %.2f Mrps, paper ~0.6", m)
	}
	if m := mcdRI.Mrps(); m < 1.3 || m > 1.8 {
		t.Errorf("mcd 95%%GET %.2f Mrps, paper ~1.5", m)
	}
	if m := micaWI.Mrps(); m < 4.2 || m > 5.2 {
		t.Errorf("mica 50%%GET %.2f Mrps, paper ~4.7", m)
	}
	if m := micaRI.Mrps(); m < 4.7 || m > 5.7 {
		t.Errorf("mica 95%%GET %.2f Mrps, paper ~5.2", m)
	}
	if micaWI.Mrps() < 5*mcdWI.Mrps() {
		t.Error("MICA should be much faster than memcached")
	}
	// Real stores executed real operations: the skewed read mix hits.
	if micaRI.Hits == 0 || mcdRI.Hits == 0 {
		t.Error("no hits recorded; real stores not exercised")
	}
}

// §5.6 skew 0.9999: locality roughly doubles MICA throughput.
func TestKVSHighSkewLocality(t *testing.T) {
	base := RunKVS(KVSConfig{System: MICA, Dataset: workload.Tiny, Mix: workload.ReadIntensive,
		Requests: 40_000, Populate: 50_000, Seed: 10})
	skew := RunKVS(KVSConfig{System: MICA, Dataset: workload.Tiny, Mix: workload.ReadIntensive,
		Theta: 0.9999, Requests: 40_000, Populate: 50_000, Seed: 10})
	ratio := skew.Mrps() / base.Mrps()
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("skew speedup %.2fx, paper ~2x (10.2 vs 5.2 Mrps)", ratio)
	}
}

// KVS latency stays in the paper's microsecond band at moderate load.
func TestKVSLatencyBand(t *testing.T) {
	sat := RunKVS(KVSConfig{System: MICA, Dataset: workload.Tiny, Mix: workload.WriteIntensive,
		Requests: 40_000, Populate: 50_000, Seed: 11})
	lat := RunKVS(KVSConfig{System: MICA, Dataset: workload.Tiny, Mix: workload.WriteIntensive,
		OfferedRPS: 0.5 * sat.ThroughputRPS, Requests: 40_000, Populate: 50_000, Seed: 11})
	if lat.MedianUs() < 1.5 || lat.MedianUs() > 4.5 {
		t.Errorf("mica median %.1fus, paper band 2.8-3.5us", lat.MedianUs())
	}
	if lat.P99Us() < lat.MedianUs() || lat.P99Us() > 9 {
		t.Errorf("mica p99 %.1fus, paper band 5.4-7.8us", lat.P99Us())
	}
}

// TestOverloadShedSeparation pins the overload story's shape on the timing
// stack: below saturation the shed policy is inert (identical results on and
// off), past saturation it bounds the completed-request tail near the budget
// while the no-shed tail grows with the backlog.
func TestOverloadShedSeparation(t *testing.T) {
	iface := interconnect.Config{Kind: interconnect.UPI, Batch: 1}
	satRPS := 1e9 / float64(OverloadServiceTime(iface))

	run := func(mult float64, shed bool) *OverloadResult {
		return RunOverloadPoint(OverloadConfig{
			Iface: iface, OfferedRPS: mult * satRPS, Requests: 20_000,
			BudgetMicros: overloadBudgetMicros, Shed: shed, Seed: 9,
		})
	}

	// Below saturation the budget never binds: shed on/off must be
	// bit-identical (same seed, same arrivals, zero sheds).
	subOff, subOn := run(0.5, false), run(0.5, true)
	if subOn.Shed != 0 {
		t.Fatalf("%d sheds below saturation", subOn.Shed)
	}
	if subOff.P99Us() != subOn.P99Us() || subOff.Completed != subOn.Completed {
		t.Fatalf("shed policy perturbed a sub-saturation run: off p99 %.1fus/%d completed, on %.1fus/%d",
			subOff.P99Us(), subOff.Completed, subOn.P99Us(), subOn.Completed)
	}

	// Past saturation the separation appears.
	off, on := run(2.5, false), run(2.5, true)
	if on.Shed == 0 {
		t.Fatal("no sheds at 2.5x saturation")
	}
	if on.P99Us() >= off.P99Us() {
		t.Fatalf("shed-on p99 %.1fus >= shed-off p99 %.1fus", on.P99Us(), off.P99Us())
	}
	// With shedding, completed requests stay near the budget (they were
	// admitted precisely because their budget had not expired).
	if on.P99Us() > 2*overloadBudgetMicros {
		t.Fatalf("shed-on p99 %.1fus far exceeds the %dus budget", on.P99Us(), overloadBudgetMicros)
	}
	// Without shedding, expired work still executes: deadline misses abound.
	// (With shedding, completions can still overshoot slightly — a request
	// admitted just under budget pays the service and response path after
	// the check — but the p99 bound above caps the overshoot.)
	if off.DeadlineMisses == 0 {
		t.Fatal("no deadline misses without shedding past saturation")
	}

	// Determinism: the same config reproduces bit-identical results.
	again := run(2.5, true)
	if again.Shed != on.Shed || again.Completed != on.Completed || again.P99Us() != on.P99Us() {
		t.Fatalf("overload point not deterministic: %d/%d/%.1f vs %d/%d/%.1f",
			again.Shed, again.Completed, again.P99Us(), on.Shed, on.Completed, on.P99Us())
	}
}

func TestRegistryIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry()) {
		t.Fatal("IDs out of sync with Registry")
	}
	for _, want := range []string{"fig3", "fig4", "fig5", "fig10", "fig11-latency",
		"fig11-scale", "fig12", "fig12-skew", "fig15", "table1", "table3", "table4",
		"raw-read", "overload", "congestion"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
}

func TestResolveAutoBatch(t *testing.T) {
	auto := interconnect.Config{Kind: interconnect.UPI, Batch: 4, AutoBatch: true}
	if got := ResolveAutoBatch(auto, 2e6); got.Batch != 1 || got.AutoBatch {
		t.Errorf("low load resolved to %+v, want B=1", got)
	}
	if got := ResolveAutoBatch(auto, 10e6); got.Batch != 4 {
		t.Errorf("high load resolved to %+v, want B=4", got)
	}
	if got := ResolveAutoBatch(auto, 0); got.Batch != 4 {
		t.Errorf("saturation resolved to %+v, want B=4", got)
	}
	fixed := interconnect.Config{Kind: interconnect.UPI, Batch: 2}
	if got := ResolveAutoBatch(fixed, 1e6); got != fixed {
		t.Error("fixed config must pass through unchanged")
	}
}

func TestEchoDeterminism(t *testing.T) {
	cfg := EchoConfig{Iface: interconnect.Config{Kind: interconnect.UPI, Batch: 4},
		OfferedRPS: 5e6, Requests: 20_000, Seed: 12}
	a, b := RunEcho(cfg), RunEcho(cfg)
	if a.Completed != b.Completed || a.Latency.Percentile(99) != b.Latency.Percentile(99) {
		t.Fatal("echo runs with same seed differ")
	}
}

// Figure 14: round-robin arbitration isolates well-behaved tenants from an
// antagonist flooding the shared bus.
func TestVirtualizationIsolation(t *testing.T) {
	fair := RunVirt(VirtConfig{Tenants: 4, OfferedRPSPerTenant: 5e6, Requests: 40_000, Seed: 1})
	ant := RunVirt(VirtConfig{Tenants: 4, OfferedRPSPerTenant: 5e6,
		AntagonistMultiplier: 10, Requests: 40_000, Seed: 1})
	for i := 1; i < 4; i++ {
		fairRPS := fair.PerTenantRPS[i]
		antRPS := ant.PerTenantRPS[i]
		if antRPS < 0.9*fairRPS {
			t.Errorf("tenant %d throughput fell %0.1f -> %0.1f Mrps under antagonist",
				i, fairRPS/1e6, antRPS/1e6)
		}
	}
	// The antagonist gets more than its fair-share baseline (spare capacity)
	// but is capped by arbitration, far below its 50 Mrps offered load.
	if ant.PerTenantRPS[0] < fair.PerTenantRPS[0] {
		t.Error("antagonist got less than baseline despite flooding")
	}
	if ant.PerTenantRPS[0] > 45e6 {
		t.Error("antagonist was not capped by the shared bus")
	}
}
