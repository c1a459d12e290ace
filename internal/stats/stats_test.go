package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.min != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d, want 1/100", h.min, h.Max())
	}
	p50 := h.Percentile(50)
	if p50 < 45 || p50 > 55 {
		t.Fatalf("p50 = %d, want ~50", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 95 || p99 > 100 {
		t.Fatalf("p99 = %d, want ~99", p99)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Percentile(50) != 0 || h.Percentile(0) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.RecordN(42, 1000)
	for _, p := range []float64{0, 1, 50, 99, 99.9, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Fatalf("P%v = %d, want 42", p, got)
		}
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// With 32 sub-buckets per octave, any percentile must be within ~3.2%
	// of the exact empirical percentile.
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var exact []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform over [100ns, 100ms].
		v := int64(100 * math.Exp(rng.Float64()*math.Log(1e6)))
		h.Record(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		idx := int(math.Ceil(p/100*float64(len(exact)))) - 1
		want := exact[idx]
		got := h.Percentile(p)
		relErr := math.Abs(float64(got)-float64(want)) / float64(want)
		if relErr > 0.04 {
			t.Errorf("P%v = %d, exact %d, rel err %.3f > 0.04", p, got, want, relErr)
		}
	}
}

// Property: percentiles are monotone in p, bounded by the smallest and
// largest values, and P0 and P100 equal them exactly.
func TestHistogramMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for p := 0.0; p <= 100.0; p += 2.5 {
			v := h.Percentile(p)
			if v < prev || v < h.min || v > h.Max() {
				return false
			}
			prev = v
		}
		return h.Percentile(100) == h.Max() && h.Percentile(0) == h.min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: BucketLow(BucketIndex(v)) <= v and the bucket width bound holds.
func TestHistogramBucketInverseProperty(t *testing.T) {
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		idx := BucketIndex(v)
		low := BucketLow(idx)
		if low > v {
			return false
		}
		// Upper bound: next bucket's low must exceed v.
		return BucketLow(idx+1) > v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]int64{64, 128, 128, 512, 1024})
	if got := c.At(63); got != 0 {
		t.Fatalf("At(63) = %v, want 0", got)
	}
	if got := c.At(128); got != 0.6 {
		t.Fatalf("At(128) = %v, want 0.6", got)
	}
	if got := c.At(2048); got != 1 {
		t.Fatalf("At(2048) = %v, want 1", got)
	}
	if q := c.Quantile(0.5); q != 128 {
		t.Fatalf("Quantile(0.5) = %d, want 128", q)
	}
	if q := c.Quantile(1); q != 1024 {
		t.Fatalf("Quantile(1) = %d, want 1024", q)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Quantile(0.9) != 0 || len(c.vals) != 0 {
		t.Fatal("empty CDF should report zeros")
	}
}

// Property: CDF At is monotone and Quantile inverts At within data bounds.
func TestCDFProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		obs := make([]int64, len(raw))
		for i, v := range raw {
			obs[i] = int64(v)
		}
		c := NewCDF(obs)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
			v := c.Quantile(q)
			if c.At(v) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refBucketIndex is BucketIndex with the leading-zero count done by the
// shift loop the bits.LeadingZeros64 call replaced; it is the reference.
func refBucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	const sub = int64(1) << SubBits
	if v < sub {
		return int(v)
	}
	lz := 0
	for x := uint64(v); x&(1<<63) == 0; x <<= 1 {
		lz++
	}
	octave := 63 - lz - SubBits
	offset := (v >> uint(octave)) - sub
	return int(sub) + octave*int(sub) + int(offset)
}

func TestBucketIndexMatchesShiftLoop(t *testing.T) {
	vals := []int64{0, math.MaxInt64}
	for k := 0; k < 63; k++ {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, v := range vals {
		if got, want := BucketIndex(v), refBucketIndex(v); got != want {
			t.Fatalf("BucketIndex(%d) = %d, want %d", v, got, want)
		}
	}
}
