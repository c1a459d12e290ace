package faults

import (
	"testing"
)

func testConfig() Config {
	return Config{
		Seed: 42,
		Rates: Rates{
			Drop:      150_000,
			Duplicate: 100_000,
			Delay:     100_000,
			Reorder:   50_000,
			Corrupt:   100_000,
		},
	}
}

// The plan is the sequence: every injector and every per-index evaluation of
// the same config must replay it exactly.
func TestPlanReplaysExactly(t *testing.T) {
	cfg := testConfig()
	const n = 10_000
	plan := Plan(cfg, n)
	for i, want := range plan {
		if got := VerdictAt(cfg, uint64(i)); got != want {
			t.Fatalf("VerdictAt(%d) = %+v, plan says %+v", i, got, want)
		}
	}
	inj, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range plan {
		if got := inj.Next(); got != want {
			t.Fatalf("injector verdict %d = %+v, plan says %+v", i, got, want)
		}
	}
	if inj.Issued() != n {
		t.Fatalf("Issued = %d, want %d", inj.Issued(), n)
	}
}

func TestSeedSelectsSequence(t *testing.T) {
	a := testConfig()
	b := testConfig()
	b.Seed = 43
	const n = 4096
	planA, planB := Plan(a, n), Plan(b, n)
	same := 0
	for i := range planA {
		if planA[i] == planB[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical plans")
	}
	// Same seed: identical, trivially.
	for i, v := range Plan(a, n) {
		if v != planA[i] {
			t.Fatalf("same config diverged at %d", i)
		}
	}
}

// Configured rates are honored to within sampling noise, every configured
// class actually occurs, and class args respect their contracts.
func TestRatesAndArgs(t *testing.T) {
	cfg := testConfig()
	const n = 200_000
	plan := Plan(cfg, n)
	counts := CountClasses(plan)
	want := map[Class]uint64{
		Drop:       uint64(cfg.Rates.Drop),
		Duplicate:  uint64(cfg.Rates.Duplicate),
		Delay:      uint64(cfg.Rates.Delay),
		Reorder:    uint64(cfg.Rates.Reorder),
		CorruptBit: uint64(cfg.Rates.Corrupt),
		Deliver:    RateDenominator - cfg.Rates.Sum(),
	}
	for class, ppm := range want {
		got := counts[class]
		expect := float64(ppm) * n / RateDenominator
		if expect == 0 {
			if got != 0 {
				t.Errorf("%v: %d verdicts at zero rate", class, got)
			}
			continue
		}
		if got == 0 {
			t.Errorf("%v: configured but never drawn in %d frames", class, n)
		}
		if ratio := float64(got) / expect; ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%v: %d verdicts, expected ~%.0f (ratio %.3f)", class, got, expect, ratio)
		}
	}
	sawDelayArgs := map[uint32]bool{}
	for _, v := range plan {
		switch v.Class {
		case Delay:
			if v.Arg < 1 || v.Arg > maxDelay {
				t.Fatalf("Delay arg %d outside [1,%d]", v.Arg, maxDelay)
			}
			sawDelayArgs[v.Arg] = true
		case Reorder:
			if v.Arg != 1 {
				t.Fatalf("Reorder arg %d, want 1", v.Arg)
			}
		case Deliver, Drop, Duplicate:
			if v.Arg != 0 {
				t.Fatalf("%v carries arg %d", v.Class, v.Arg)
			}
		}
	}
	if len(sawDelayArgs) != maxDelay {
		t.Errorf("delay args drawn: %d distinct, want %d", len(sawDelayArgs), maxDelay)
	}
}

func TestZeroConfigDeliversEverything(t *testing.T) {
	for i, v := range Plan(Config{Seed: 9}, 10_000) {
		if v.Class != Deliver {
			t.Fatalf("frame %d: zero-rate config drew %v", i, v.Class)
		}
	}
}

func TestValidateRejectsOverlappingRates(t *testing.T) {
	bad := Config{Rates: Rates{Drop: 600_000, Corrupt: 500_000}}
	if err := bad.Validate(); err != ErrRates {
		t.Fatalf("Validate = %v, want ErrRates", err)
	}
	if _, err := NewInjector(bad); err != ErrRates {
		t.Fatalf("NewInjector = %v, want ErrRates", err)
	}
	full := Config{Rates: Rates{Drop: RateDenominator}}
	if err := full.Validate(); err != nil {
		t.Fatalf("rates summing to exactly the denominator rejected: %v", err)
	}
}

func TestClassStrings(t *testing.T) {
	for class, want := range map[Class]string{
		Deliver: "deliver", Drop: "drop", Duplicate: "duplicate",
		Delay: "delay", Reorder: "reorder", CorruptBit: "corrupt-bit",
		Class(99): "class(?)",
	} {
		if got := class.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", class, got, want)
		}
	}
}

// The verdict path is the per-frame hot path on both substrates: it must not
// allocate.
func TestVerdictPathAllocationFree(t *testing.T) {
	cfg := testConfig()
	inj, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sink Verdict
	if n := testing.AllocsPerRun(1000, func() {
		sink = VerdictAt(cfg, 12345)
	}); n != 0 {
		t.Errorf("VerdictAt allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sink = inj.Next()
	}); n != 0 {
		t.Errorf("Injector.Next allocates %.1f per call", n)
	}
	_ = sink
}
