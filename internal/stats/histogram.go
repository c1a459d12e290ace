// Package stats provides the measurement primitives used across Dagger's
// experiment harness: log-bucketed latency histograms with percentile
// queries, and CDFs over discrete size distributions.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Histogram is a latency histogram with logarithmically spaced buckets
// (HDR-style: within each power-of-two range, a fixed number of linear
// sub-buckets). It records int64 values — nanoseconds, bytes, counts — with
// bounded relative error set by the sub-bucket resolution.
type Histogram struct {
	subBits uint // sub-buckets per octave = 1<<subBits

	counts []uint64
	total  uint64
	min    int64
	max    int64
}

// NewHistogram returns a histogram with 32 sub-buckets per power of two
// (≈3% worst-case relative error), suitable for microsecond-scale latencies.
func NewHistogram() *Histogram {
	return NewHistogramPrecision(5)
}

// NewHistogramPrecision returns a histogram with 1<<subBits sub-buckets per
// power of two. subBits must be in [0, 10].
func NewHistogramPrecision(subBits uint) *Histogram {
	if subBits > 10 {
		panic("stats: subBits too large")
	}
	return &Histogram{subBits: subBits, min: math.MaxInt64, max: math.MinInt64}
}

// BucketIndex returns the bucket holding value v in the log-bucketed
// geometry with 1<<subBits sub-buckets per power of two. The geometry is
// shared with internal/metrics, whose fixed-size histograms preallocate
// NumBuckets counters so the observation path never grows a slice.
func BucketIndex(subBits uint, v int64) int {
	if v < 0 {
		v = 0
	}
	sub := int64(1) << subBits
	if v < sub {
		return int(v)
	}
	// Position of the leading bit above the linear range.
	lead := 63 - bits.LeadingZeros64(uint64(v))
	octave := lead - int(subBits)
	offset := (v >> uint(octave)) - sub // 0..sub-1 within the octave
	return int(sub) + octave*int(sub) + int(offset)
}

// BucketLow returns the lowest value mapping to bucket i (the inverse of
// BucketIndex, used for percentile reconstruction).
func BucketLow(subBits uint, i int) int64 {
	sub := int64(1) << subBits
	if int64(i) < sub {
		return int64(i)
	}
	octave := (i - int(sub)) / int(sub)
	offset := int64((i - int(sub)) % int(sub))
	v := uint64(sub+offset) << uint(octave)
	if v > math.MaxInt64 || octave > 63 {
		return math.MaxInt64
	}
	return int64(v)
}

// NumBuckets returns the number of buckets the geometry needs to cover the
// whole non-negative int64 range at the given precision.
func NumBuckets(subBits uint) int {
	return BucketIndex(subBits, math.MaxInt64) + 1
}

func (h *Histogram) bucketIndex(v int64) int { return BucketIndex(h.subBits, v) }

// bucketLow returns the lowest value mapping to bucket i (inverse of
// bucketIndex, used for percentile reconstruction).
func (h *Histogram) bucketLow(i int) int64 { return BucketLow(h.subBits, i) }

// Record adds one observation.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n observations of value v.
func (h *Histogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	idx := h.bucketIndex(v)
	for idx >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[idx] += n
	h.total += n
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the value at quantile p in [0, 100]. The result is the
// lower bound of the bucket containing the p-th observation, clamped to the
// smallest and largest recorded values. Empty histograms return 0.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := h.bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// CDF describes an empirical cumulative distribution over int64 values.
type CDF struct {
	vals []int64
}

// NewCDF builds a CDF from observations (the slice is copied and sorted).
func NewCDF(obs []int64) *CDF {
	v := make([]int64, len(obs))
	copy(v, obs)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return &CDF{vals: v}
}

// At returns the fraction of observations <= x.
func (c *CDF) At(x int64) float64 {
	if len(c.vals) == 0 {
		return 0
	}
	i := sort.Search(len(c.vals), func(i int) bool { return c.vals[i] > x })
	return float64(i) / float64(len(c.vals))
}

// Quantile returns the smallest value v such that At(v) >= q, for q in (0,1].
func (c *CDF) Quantile(q float64) int64 {
	if len(c.vals) == 0 {
		return 0
	}
	if q <= 0 {
		return c.vals[0]
	}
	if q > 1 {
		q = 1
	}
	idx := int(math.Ceil(q*float64(len(c.vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.vals) {
		idx = len(c.vals) - 1
	}
	return c.vals[idx]
}
