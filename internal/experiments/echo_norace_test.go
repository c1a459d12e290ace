//go:build !race

// The timing-model sweeps below start no goroutine, so the race detector has
// nothing to check in them and only multiplies their run time; they run in
// the plain `go test ./...` pass.

package experiments

import (
	"testing"

	"dagger/internal/interconnect"
)

func echoSat(t *testing.T, cfg interconnect.Config) *EchoResult {
	t.Helper()
	return RunEcho(EchoConfig{Iface: cfg, Requests: 60_000, Seed: 1})
}

// Figure 10's headline: the DES-measured saturation throughputs land within
// 10% of the paper for every interface variant.
func TestEchoSaturationMatchesFig10(t *testing.T) {
	want := map[string]float64{
		"MMIO":             4.2,
		"Doorbell":         4.3,
		"Doorbell, B = 3":  7.9,
		"Doorbell, B = 7":  9.9,
		"Doorbell, B = 11": 10.8,
		"UPI, B = 1":       8.1,
		"UPI, B = 4":       12.4,
	}
	for _, cfg := range interconnect.Fig10Configs() {
		got := echoSat(t, cfg).Mrps()
		paper := want[cfg.Name()]
		if got < paper*0.88 || got > paper*1.12 {
			t.Errorf("%s: measured %.1f Mrps, paper %.1f", cfg.Name(), got, paper)
		}
	}
}

// Figure 10's latency ordering: UPI variants are the fastest; doorbell
// batching trades latency for throughput monotonically in B.
func TestEchoLatencyOrdering(t *testing.T) {
	med := func(cfg interconnect.Config) float64 {
		sat := echoSat(t, cfg)
		lat := RunEcho(EchoConfig{Iface: cfg, OfferedRPS: 0.85 * sat.ThroughputRPS, Requests: 60_000, Seed: 2})
		return lat.MedianUs()
	}
	upi1 := med(interconnect.Config{Kind: interconnect.UPI, Batch: 1})
	upi4 := med(interconnect.Config{Kind: interconnect.UPI, Batch: 4})
	mmio := med(interconnect.Config{Kind: interconnect.MMIO, Batch: 1})
	db3 := med(interconnect.Config{Kind: interconnect.DoorbellBatch, Batch: 3})
	db11 := med(interconnect.Config{Kind: interconnect.DoorbellBatch, Batch: 11})
	if upi1 >= mmio || upi4 >= mmio {
		t.Errorf("UPI latency (%.2f/%.2f) should beat MMIO (%.2f)", upi1, upi4, mmio)
	}
	if db11 <= db3 {
		t.Errorf("doorbell B=11 median %.2f should exceed B=3 %.2f", db11, db3)
	}
	if upi1 > 2.3 {
		t.Errorf("UPI B=1 median %.2fus, paper ~1.8us", upi1)
	}
}

// Figure 11 right: linear scaling to 4 threads, flat at ~42 Mrps; raw reads
// scale further to ~80 Mrps.
func TestEchoThreadScaling(t *testing.T) {
	upi4 := interconnect.Config{Kind: interconnect.UPI, Batch: 4}
	four := RunEcho(EchoConfig{Iface: upi4, Threads: 4, Requests: 120_000, Seed: 5}).Mrps()
	eight := RunEcho(EchoConfig{Iface: upi4, Threads: 8, Requests: 120_000, Seed: 5}).Mrps()
	if four < 38 || four > 46 {
		t.Errorf("4-thread throughput %.1f Mrps, paper ~42", four)
	}
	if eight > four*1.08 {
		t.Errorf("8 threads (%.1f) should not scale past the endpoint cap (%.1f)", eight, four)
	}
	raw8 := RunRawReads(8, 400_000).ThroughputRPS / 1e6
	if raw8 < 72 || raw8 > 92 {
		t.Errorf("8-thread raw reads %.1f Mrps, paper ~80", raw8)
	}
	raw2 := RunRawReads(2, 200_000).ThroughputRPS / 1e6
	if raw2 >= raw8 {
		t.Error("raw reads should scale with threads")
	}
}
