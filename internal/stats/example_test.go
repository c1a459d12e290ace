package stats_test

import (
	"fmt"

	"dagger/internal/stats"
)

// ExampleHistogram records latencies and queries percentiles.
func ExampleHistogram() {
	h := stats.NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 100) // 100ns .. 100us
	}
	fmt.Println(h.Count(), h.Percentile(0), h.Max())
	fmt.Println(h.Percentile(50) >= 48_000 && h.Percentile(50) <= 52_000)
	// Output:
	// 1000 100 100000
	// true
}

// ExampleCDF inspects a discrete size distribution.
func ExampleCDF() {
	c := stats.NewCDF([]int64{32, 64, 64, 128, 512})
	fmt.Printf("%.1f %d\n", c.At(64), c.Quantile(0.9))
	// Output: 0.6 512
}
