package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is the harness's own latency histogram: log-linear buckets (64 per
// power of two, so a bucket is at most 1.6 % wide) with linear interpolation
// inside a bucket, so a percentile reads as a continuous value. It is kept
// apart from internal/stats and internal/metrics on purpose: those are layers
// under test, and a change to their bucket geometry must not move the
// benchmark's own readings.
type hist struct {
	counts [histBuckets]uint32
	total  uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 40 // values clamp at 2^40 ns (~18 min)
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(uint(exp)-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// histBounds returns the smallest value of bucket i and the bucket's width.
func histBounds(i int) (low, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	exp := uint(i/histSub + histSubBits - 1)
	sub := i % histSub
	w := int64(1) << (exp - histSubBits)
	return float64(int64(1)<<exp + int64(sub)*w), float64(w)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.total++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// quantile returns the q-th quantile (q in [0,1]); 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			low, width := histBounds(i)
			return low + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	low, width := histBounds(histBuckets - 1)
	return low + width
}

// median returns the median of vs (0 when empty); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// trimmedMean returns the mean of vs without its drop lowest and drop highest
// values (the median when that leaves nothing); vs is not modified.
func trimmedMean(vs []float64, drop int) float64 {
	if len(vs) <= 2*drop {
		return median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s[drop : len(s)-drop] {
		sum += v
	}
	return sum / float64(len(s)-2*drop)
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is what the
// benchmark's acceptance rule is written against. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance of vs as a share of their median; 0
// when it cannot be computed (fewer than two values or a zero median).
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}
