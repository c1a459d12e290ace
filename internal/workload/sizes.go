package workload

import (
	"math"
	"math/rand"
)

// SizeDist samples RPC payload sizes in bytes.
type SizeDist interface {
	Sample(rng *rand.Rand) int64
}

// FixedSize always returns the same size.
type FixedSize int64

// Sample returns the fixed size.
func (f FixedSize) Sample(*rand.Rand) int64 { return int64(f) }

// LogNormalSize samples a log-normal size clamped to [Min, Max].
type LogNormalSize struct {
	Mu, Sigma float64 // parameters of ln(size)
	Min, Max  int64
}

// Sample draws a log-normal size.
func (l LogNormalSize) Sample(rng *rand.Rand) int64 {
	v := int64(math.Exp(l.Mu + l.Sigma*rng.NormFloat64()))
	if v < l.Min {
		v = l.Min
	}
	if l.Max > 0 && v > l.Max {
		v = l.Max
	}
	return v
}
