package microsim

import (
	"testing"

	"dagger/internal/stats"
)

func run(t *testing.T, qps float64, mode Mode, n int) *Result {
	t.Helper()
	res := Run(RunConfig{Graph: SocialNetwork(), QPS: qps, Requests: n, Seed: 11, Mode: mode})
	if res.Finished != n {
		t.Fatalf("finished %d of %d", res.Finished, n)
	}
	return res
}

func TestRunCompletesAllRequests(t *testing.T) {
	res := run(t, 200, IsolatedNetworking, 500)
	if res.E2E.Total.Count() != 500 {
		t.Fatal("e2e histogram incomplete")
	}
	for _, tier := range []string{TierUser, TierText, TierUniqueID} {
		if res.PerTier[tier].Total.Count() == 0 {
			t.Fatalf("tier %s saw no traffic", tier)
		}
	}
}

// §3.1: networking is a large share of per-tier latency — up to ~80% for
// the light User and UniqueID tiers, much lower for compute-heavy Text.
func TestNetworkingShareShape(t *testing.T) {
	res := run(t, 200, IsolatedNetworking, 1500)
	user := res.PerTier[TierUser].NetFrac(50)
	uid := res.PerTier[TierUniqueID].NetFrac(50)
	text := res.PerTier[TierText].NetFrac(50)
	if user < 0.6 || uid < 0.6 {
		t.Errorf("light tiers: User %.2f, UniqueID %.2f networking share, want > 0.6", user, uid)
	}
	if text > 0.4 {
		t.Errorf("Text networking share %.2f, want < 0.4 (compute-heavy)", text)
	}
	// End-to-end: at least a third of latency is communication.
	if e2e := res.E2E.NetFrac(50); e2e < 0.33 {
		t.Errorf("e2e networking share %.2f, want >= 0.33", e2e)
	}
}

// Networking share grows with load (queueing attributed to the RPC layer).
func TestNetworkingShareGrowsWithLoad(t *testing.T) {
	low := run(t, 200, SharedCores, 1500)
	high := run(t, 800, SharedCores, 1500)
	lowTail := low.E2E.NetFrac(99)
	highTail := high.E2E.NetFrac(99)
	if highTail < lowTail {
		t.Errorf("tail networking share fell with load: %.2f -> %.2f", lowTail, highTail)
	}
	// Latency itself must grow with load.
	if high.E2E.Total.Percentile(99) <= low.E2E.Total.Percentile(99) {
		t.Error("tail latency did not grow with load")
	}
}

// Figure 5: sharing cores between networking and logic inflates latency,
// and the inflation worsens with load.
func TestInterferenceInflatesLatency(t *testing.T) {
	iso := run(t, 600, IsolatedNetworking, 1500)
	shared := run(t, 600, SharedCores, 1500)
	isoP99 := iso.E2E.Total.Percentile(99)
	sharedP99 := shared.E2E.Total.Percentile(99)
	if sharedP99 <= isoP99 {
		t.Errorf("shared p99 %v <= isolated p99 %v", sharedP99, isoP99)
	}
	isoMed := iso.E2E.Total.Percentile(50)
	sharedMed := shared.E2E.Total.Percentile(50)
	if sharedMed <= isoMed {
		t.Errorf("shared median %v <= isolated median %v", sharedMed, isoMed)
	}
	// Interference grows with load: the shared/isolated tail gap at 800
	// QPS exceeds the gap at 200 QPS.
	isoLow := run(t, 200, IsolatedNetworking, 1000)
	sharedLow := run(t, 200, SharedCores, 1000)
	gapLow := float64(sharedLow.E2E.Total.Percentile(99)) / float64(isoLow.E2E.Total.Percentile(99))
	gapHigh := float64(sharedP99) / float64(isoP99)
	if gapHigh < gapLow {
		t.Errorf("interference gap shrank with load: %.2f -> %.2f", gapLow, gapHigh)
	}
}

// Figure 4: 75% of requests < 512 B; >90% of responses <= 64 B; per-service
// shapes (Text median ~580 B; Media/User/UniqueID <= 64 B).
func TestRPCSizeDistributions(t *testing.T) {
	res := run(t, 200, IsolatedNetworking, 2000)
	req := stats.NewCDF(res.AllReqSizes())
	rsp := stats.NewCDF(res.AllRspSizes())
	if f := req.At(512); f < 0.65 {
		t.Errorf("requests <= 512B: %.2f, want >= 0.65 (paper: 75%%)", f)
	}
	if f := rsp.At(64); f < 0.85 {
		t.Errorf("responses <= 64B: %.2f, want >= 0.85 (paper: >90%%)", f)
	}
	// Per-service: Media/User/UniqueID tiny; Text median around 580 B.
	for _, tier := range []string{TierMedia, TierUser, TierUniqueID} {
		c := stats.NewCDF(res.ReqSizes[tier])
		if c.At(64) < 0.99 {
			t.Errorf("%s requests should be <= 64B", tier)
		}
	}
	text := stats.NewCDF(res.ReqSizes[TierText])
	med := text.Quantile(0.5)
	if med < 350 || med > 900 {
		t.Errorf("Text median request size %d, want ~580", med)
	}
}

func TestMediaServingGraph(t *testing.T) {
	res := Run(RunConfig{Graph: MediaServing(), QPS: 200, Requests: 500, Seed: 3, Mode: IsolatedNetworking})
	if res.Finished != 500 {
		t.Fatalf("finished %d", res.Finished)
	}
	if res.PerTier["MovieInfo"].Total.Count() == 0 {
		t.Fatal("browse path unused")
	}
	if res.PerTier["Text"].Total.Count() == 0 {
		t.Fatal("compose path unused")
	}
}

func TestGraphTierIndex(t *testing.T) {
	g := SocialNetwork()
	if g.TierIndex(TierUser) < 0 {
		t.Fatal("User tier missing")
	}
	if g.TierIndex("nope") != -1 {
		t.Fatal("unknown tier should return -1")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(RunConfig{Graph: SocialNetwork(), QPS: 300, Requests: 300, Seed: 9, Mode: SharedCores})
	b := Run(RunConfig{Graph: SocialNetwork(), QPS: 300, Requests: 300, Seed: 9, Mode: SharedCores})
	if a.E2E.Total.Percentile(50) != b.E2E.Total.Percentile(50) ||
		a.E2E.Total.Percentile(99) != b.E2E.Total.Percentile(99) {
		t.Fatal("same seed produced different results")
	}
}

// Per-request-type latency: compose-post traverses the deep fan-out
// (including the heavy Text subtree) and must be slower than the timeline
// reads.
func TestPerRequestTypeLatency(t *testing.T) {
	res := run(t, 300, IsolatedNetworking, 2000)
	compose := res.PerType["compose-post"]
	readHome := res.PerType["read-home-timeline"]
	readUser := res.PerType["read-user-timeline"]
	if compose == nil || readHome == nil || readUser == nil {
		t.Fatal("per-type histograms missing")
	}
	if compose.Count()+readHome.Count()+readUser.Count() != 2000 {
		t.Fatal("per-type counts do not sum to total")
	}
	if compose.Percentile(50) <= readHome.Percentile(50) {
		t.Errorf("compose median %v should exceed read-home %v",
			compose.Percentile(50), readHome.Percentile(50))
	}
	if compose.Percentile(50) <= readUser.Percentile(50) {
		t.Errorf("compose median %v should exceed read-user %v",
			compose.Percentile(50), readUser.Percentile(50))
	}
	// Request mix weights roughly respected (60/25/15).
	frac := float64(compose.Count()) / 2000
	if frac < 0.5 || frac > 0.7 {
		t.Errorf("compose fraction %.2f, want ~0.6", frac)
	}
}
