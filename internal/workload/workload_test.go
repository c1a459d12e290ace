package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dagger/internal/sim"
)

func TestZipfSkewConcentratesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 1_000_000, 0.99)
	const n = 200_000
	top100 := 0
	for i := 0; i < n; i++ {
		if z.Next() < 100 {
			top100++
		}
	}
	frac := float64(top100) / n
	// With theta=0.99 over 1M keys, the top-100 ranks should capture a large
	// fraction of accesses (analytically ~37%).
	if frac < 0.25 || frac > 0.55 {
		t.Fatalf("top-100 mass = %.3f, want ~0.37", frac)
	}
}

func TestZipfHigherSkewMoreMass(t *testing.T) {
	sample := func(theta float64) float64 {
		rng := rand.New(rand.NewSource(2))
		z := NewZipf(rng, 1_000_000, theta)
		hit := 0
		for i := 0; i < 100_000; i++ {
			if z.Next() < 10 {
				hit++
			}
		}
		return float64(hit) / 100_000
	}
	lo, hi := sample(0.9), sample(0.9999)
	if hi <= lo {
		t.Fatalf("skew 0.9999 mass %.3f should exceed skew 0.9 mass %.3f", hi, lo)
	}
}

func TestZipfUniformDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(rng, 1000, 0)
	counts := make([]int, 10)
	for i := 0; i < 100_000; i++ {
		counts[z.Next()/100]++
	}
	for i, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("bucket %d count %d, want ~10000 (uniform)", i, c)
		}
	}
}

// Property: Zipf samples always land in [0, n).
func TestZipfBoundsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, thetaRaw uint8) bool {
		n := uint64(nRaw)%10000 + 1
		theta := float64(thetaRaw) / 256.0 // [0, 1)
		rng := rand.New(rand.NewSource(seed))
		z := NewZipf(rng, n, theta)
		for i := 0; i < 200; i++ {
			if z.Next() >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfLargeDomainZeta(t *testing.T) {
	// 200M records (the paper's MICA dataset) must construct quickly via the
	// approximation and still produce valid skewed samples.
	rng := rand.New(rand.NewSource(4))
	z := NewZipf(rng, 200_000_000, 0.99)
	hit := 0
	for i := 0; i < 50_000; i++ {
		v := z.Next()
		if v >= z.n {
			t.Fatal("sample out of range")
		}
		if v < 1000 {
			hit++
		}
	}
	if hit == 0 {
		t.Fatal("no samples in the hot set; zeta approximation broken")
	}
}

func TestKVGeneratorMix(t *testing.T) {
	g := NewKVGenerator(5, Tiny, ReadIntensive, 0.99)
	gets := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		r := g.Next()
		if len(r.Key) != Tiny.KeySize {
			t.Fatalf("key size %d, want %d", len(r.Key), Tiny.KeySize)
		}
		if r.Op == OpGet {
			gets++
			if r.Value != nil {
				t.Fatal("get carries a value")
			}
		} else if len(r.Value) != Tiny.ValueSize {
			t.Fatalf("value size %d, want %d", len(r.Value), Tiny.ValueSize)
		}
	}
	frac := float64(gets) / n
	if math.Abs(frac-0.95) > 0.01 {
		t.Fatalf("get fraction %.3f, want 0.95", frac)
	}
}

func TestKeyForRecordDeterministic(t *testing.T) {
	a := KeyForRecord(Small, 12345, nil)
	b := KeyForRecord(Small, 12345, nil)
	if string(a) != string(b) {
		t.Fatal("same record produced different keys")
	}
	c := KeyForRecord(Small, 12346, nil)
	if string(a) == string(c) {
		t.Fatal("different records produced identical keys")
	}
	if len(a) != Small.KeySize {
		t.Fatalf("key length %d, want %d", len(a), Small.KeySize)
	}
}

func TestPoissonArrivalMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewPoissonArrival(rng, 1e6) // 1 Mrps => mean gap 1000 ns
	var total sim.Time
	const n = 100_000
	for i := 0; i < n; i++ {
		total += a.NextGap()
	}
	mean := float64(total) / n
	if math.Abs(mean-1000) > 30 {
		t.Fatalf("mean gap %.1f ns, want ~1000", mean)
	}
}

func TestArrivalRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate did not panic")
		}
	}()
	NewPoissonArrival(rand.New(rand.NewSource(1)), 0)
}

func TestSizeDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if FixedSize(64).Sample(rng) != 64 {
		t.Fatal("fixed size wrong")
	}
	l := LogNormalSize{Mu: math.Log(580), Sigma: 0.5, Min: 64, Max: 4096}
	for i := 0; i < 1000; i++ {
		v := l.Sample(rng)
		if v < 64 || v > 4096 {
			t.Fatalf("lognormal sample %d out of clamp range", v)
		}
	}
}
