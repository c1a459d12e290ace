package baseline

import (
	"math"
	"strings"
	"testing"
)

func TestPublishedMatchesPaperTable3(t *testing.T) {
	want := map[string]struct {
		rtt float64
		thr float64
	}{
		"IX":      {11.4, 1.5},
		"FaSST":   {2.8, 4.8},
		"eRPC":    {2.3, 4.96},
		"NetDIMM": {2.2, 0},
	}
	for _, s := range Published() {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected system %q", s.Name)
			continue
		}
		if s.RTTMicros != w.rtt || s.ThroughputMrps != w.thr {
			t.Errorf("%s: rtt/thr = %v/%v, want %v/%v", s.Name, s.RTTMicros, s.ThroughputMrps, w.rtt, w.thr)
		}
	}
	if len(Published()) != 4 {
		t.Errorf("rows = %d, want 4", len(Published()))
	}
}

// The component decompositions must actually explain the published RTTs.
func TestDecompositionsSumToPublishedRTT(t *testing.T) {
	for _, s := range append(Published(), DaggerRow(2.1, 12.4)) {
		model := float64(s.ModelRTT()) / 1e3
		if math.Abs(model-s.RTTMicros)/s.RTTMicros > 0.05 {
			t.Errorf("%s: decomposition RTT %.2fus vs published %.2fus (>5%% off)", s.Name, model, s.RTTMicros)
		}
	}
}

func TestCPUModelMatchesThroughput(t *testing.T) {
	for _, s := range append(Published(), DaggerRow(2.1, 12.4)) {
		if s.ThroughputMrps == 0 || s.CPUPerRPC == 0 {
			continue
		}
		model := s.ModelThroughputMrps()
		if math.Abs(model-s.ThroughputMrps)/s.ThroughputMrps > 0.05 {
			t.Errorf("%s: CPU model implies %.2f Mrps vs published %.2f", s.Name, model, s.ThroughputMrps)
		}
	}
}

// Table 3's qualitative claims: Dagger has the lowest RTT and the highest
// per-core throughput; the msg-only systems don't deliver full RPCs.
func TestDaggerWinsTable3(t *testing.T) {
	d := DaggerRow(2.1, 12.4)
	for _, s := range Published() {
		if s.RTTMicros < d.RTTMicros {
			t.Errorf("%s RTT %.1f beats Dagger %.1f", s.Name, s.RTTMicros, d.RTTMicros)
		}
		if s.ThroughputMrps > d.ThroughputMrps {
			t.Errorf("%s throughput beats Dagger", s.Name)
		}
	}
	if !d.FullRPC {
		t.Error("Dagger delivers full RPCs")
	}
	for _, s := range Published() {
		if strings.Contains(s.Objects, "msg") && s.FullRPC {
			t.Errorf("%s: msg system marked FullRPC", s.Name)
		}
	}
}

// Per-core speedup vs throughput-reporting baselines spans the paper's
// 1.3-3.8x headline window (2.5x vs FaSST/eRPC, larger vs IX).
func TestSpeedupRange(t *testing.T) {
	lo, hi := SpeedupRange(DaggerRow(2.1, 12.4), Published())
	if lo < 1.3 || lo > 3.0 {
		t.Errorf("min speedup %.2f outside sanity window", lo)
	}
	if hi < 3.8 {
		t.Errorf("max speedup %.2f, want >= 3.8 (vs IX it is ~8x)", hi)
	}
}

func TestFormatRow(t *testing.T) {
	row := FormatRow(Published()[0])
	if !strings.Contains(row, "IX") || !strings.Contains(row, "11.4") {
		t.Errorf("row = %q", row)
	}
	if !strings.Contains(FormatRow(Published()[3]), "N/A") {
		t.Error("NetDIMM throughput should render N/A")
	}
}
