//go:build !race

// The Table 4 / Figure 15 timing-model sweeps below start no goroutine, so
// the race detector has nothing to check in them and only multiplies their
// run time; they run in the plain `go test ./...` pass.

package flight

import "testing"

func TestModelThroughputGap(t *testing.T) {
	simpleLoads := []float64{2000, 2700, 3500, 5000, 10000}
	optLoads := []float64{25000, 40000, 48000, 60000}
	simpleMax, _ := MaxSustainableLoad(Simple, simpleLoads, 40000, 3)
	optMax, _ := MaxSustainableLoad(Optimized, optLoads, 40000, 3)
	if simpleMax == 0 || optMax == 0 {
		t.Fatalf("no sustainable load found: simple=%v opt=%v", simpleMax, optMax)
	}
	// Table 4: the Optimized threading model sustains ~17x the load.
	if optMax < 8*simpleMax {
		t.Errorf("optimized max %v < 8x simple max %v (paper: 17x)", optMax, simpleMax)
	}
	if simpleMax > 6000 {
		t.Errorf("simple max load %v, paper scale is ~2.7K", simpleMax)
	}
	if optMax < 40000 {
		t.Errorf("optimized max load %v, paper scale is ~48K", optMax)
	}
}

func TestModelDropsGrowWithLoad(t *testing.T) {
	lo := RunModel(ModelConfig{Threading: Simple, LoadRPS: 1000, Requests: 15000, Seed: 5})
	hi := RunModel(ModelConfig{Threading: Simple, LoadRPS: 25000, Requests: 15000, Seed: 5})
	if hi.DropFrac() <= lo.DropFrac() {
		t.Errorf("drops did not grow with load: %.4f -> %.4f", lo.DropFrac(), hi.DropFrac())
	}
	if hi.DropFrac() < 0.05 {
		t.Errorf("simple model at 25K should drop heavily, got %.4f", hi.DropFrac())
	}
}

// Figure 15: beyond the ~25 Krps saturation point the tail soars while the
// median stays in the 23-26us band.
func TestModelFig15Knee(t *testing.T) {
	pre := RunModel(ModelConfig{Threading: Optimized, LoadRPS: 15000, Requests: 30000, Seed: 7})
	post := RunModel(ModelConfig{Threading: Optimized, LoadRPS: 40000, Requests: 30000, Seed: 7})
	preTail := pre.Latency.Percentile(99)
	postTail := post.Latency.Percentile(99)
	if postTail < 5*preTail {
		t.Errorf("tail did not soar past the knee: %v -> %v", preTail, postTail)
	}
	preMed := pre.Latency.Percentile(50)
	postMed := post.Latency.Percentile(50)
	if postMed > 2*preMed {
		t.Errorf("median should stay flat past the knee: %v -> %v", preMed, postMed)
	}
}
