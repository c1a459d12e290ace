package overload

import (
	"testing"
	"time"

	"dagger/internal/dataplane"
)

// One short smoke per driver on the shared rig. The drivers read the wall
// clock, so these assert the invariants each driver gates itself on (which
// come back as errors) plus the bookkeeping identities that hold however
// the scheduler interleaves — not latencies or exact tallies.

const smoke = 50 * time.Millisecond

func TestRunSmoke(t *testing.T) {
	for _, shed := range []bool{false, true} {
		res, err := Run(Config{Duration: smoke, Shed: shed, Seed: 3})
		if err != nil {
			t.Fatalf("shed=%v: %v", shed, err)
		}
		if res.Completed == 0 || res.Errors != 0 || res.Completed+res.Dropped != res.Issued {
			t.Fatalf("shed=%v: issued %d = completed %d + dropped %d, errors %d",
				shed, res.Issued, res.Completed, res.Dropped, res.Errors)
		}
		if !shed && (res.Shed != 0 || res.Dropped != 0) {
			t.Fatalf("budget-less requests were shed or dropped: %+v", res)
		}
		if res.P50 <= 0 || res.P99 < res.P50 {
			t.Fatalf("shed=%v: percentiles p50 %v p99 %v", shed, res.P50, res.P99)
		}
	}
}

func TestRunCongestionSmoke(t *testing.T) {
	res, err := RunCongestion(CongestionConfig{Duration: smoke, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// RunCongestion already fails on zero marks or an idle window.
	if res.Completed == 0 || res.Completed+res.Errors != res.Issued {
		t.Fatalf("issued %d != completed %d + errors %d", res.Issued, res.Completed, res.Errors)
	}
	if res.FinalWindow <= 0 || res.FinalWindow >= dataplane.DefaultMaxWindow {
		t.Fatalf("final window %d outside (0, %d)", res.FinalWindow, dataplane.DefaultMaxWindow)
	}
}

func TestRunConnScaleSmoke(t *testing.T) {
	res, err := RunConnScale(ConnScaleConfig{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The miss counters are deterministic (shared connstate geometry), so
	// they can be pinned exactly: none while the working set fits, every
	// lookup after each slot's two first-contact opens once it does not.
	if res.FitCalls != 2*res.FitConns || res.SpillCalls != 2*res.SpillConns {
		t.Fatalf("calls fit %d spill %d, want 2 rounds over %d and %d conns",
			res.FitCalls, res.SpillCalls, res.FitConns, res.SpillConns)
	}
	if res.FitMisses != 0 || res.SpillMisses == 0 || res.FinalOpen != 0 {
		t.Fatalf("fit misses %d, spill misses %d, leaked entries %d",
			res.FitMisses, res.SpillMisses, res.FinalOpen)
	}
}

func TestRunChaosSmoke(t *testing.T) {
	res, err := RunChaos(ChaosConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded+res.TimedOut != res.Calls || res.CorruptAccepted != 0 ||
		res.NICCorruptDrops != res.NICCorrupts {
		t.Fatalf("in-fabric phase: %+v", res)
	}
	if res.LossySucceeded != res.LossyCalls || res.DeadLetters == 0 {
		t.Fatalf("transport phases: %+v", res)
	}
}
