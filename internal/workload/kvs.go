package workload

import (
	"encoding/binary"
	"math/rand"
)

// Op is a key-value store operation kind.
type Op int

const (
	// OpGet reads a key.
	OpGet Op = iota
	// OpSet writes a key.
	OpSet
)

// KVRequest is one generated key-value operation.
type KVRequest struct {
	Op    Op
	Key   []byte
	Value []byte // nil for gets
}

// Dataset describes a key/value sizing scheme. The paper evaluates "tiny"
// (8 B keys, 8 B values) and "small" (16 B keys, 32 B values) datasets,
// mirroring MICA's evaluation.
type Dataset struct {
	Name      string
	KeySize   int
	ValueSize int
	Records   uint64
}

// Standard datasets from §5.6.
var (
	Tiny  = Dataset{Name: "tiny", KeySize: 8, ValueSize: 8, Records: 10_000_000}
	Small = Dataset{Name: "small", KeySize: 16, ValueSize: 32, Records: 10_000_000}
)

// Mix describes a set/get operation mix. The paper uses write-intensive
// (50%/50%) and read-intensive (5%/95%) mixes.
type Mix struct {
	Name   string
	GetPct float64
}

// Standard mixes from §5.6.
var (
	WriteIntensive = Mix{Name: "50% GET", GetPct: 0.50}
	ReadIntensive  = Mix{Name: "95% GET", GetPct: 0.95}
)

// KVGenerator produces a Zipfian-skewed stream of KV operations over a
// dataset.
type KVGenerator struct {
	rng  *rand.Rand
	zipf *Zipf
	ds   Dataset
	mix  Mix

	key []byte
	val []byte
}

// NewKVGenerator builds a generator with the given skew (0.99 in the paper's
// main runs, 0.9999 in the high-locality run).
func NewKVGenerator(seed int64, ds Dataset, mix Mix, theta float64) *KVGenerator {
	rng := rand.New(rand.NewSource(seed))
	return &KVGenerator{
		rng:  rng,
		zipf: NewZipf(rng, ds.Records, theta),
		ds:   ds,
		mix:  mix,
		key:  make([]byte, ds.KeySize),
		val:  make([]byte, ds.ValueSize),
	}
}

// KeyForRecord deterministically materializes the key bytes for a record
// index, so generators and store loaders agree on the key space.
func KeyForRecord(ds Dataset, rec uint64, dst []byte) []byte {
	if cap(dst) < ds.KeySize {
		dst = make([]byte, ds.KeySize)
	}
	dst = dst[:ds.KeySize]
	for i := range dst {
		dst[i] = byte('a' + i%26)
	}
	binary.LittleEndian.PutUint64(dst[:8], rec)
	return dst
}

// Next returns the next operation. The returned slices are reused across
// calls; callers that retain them must copy.
func (g *KVGenerator) Next() KVRequest {
	rec := g.zipf.Next()
	g.key = KeyForRecord(g.ds, rec, g.key)
	if g.rng.Float64() < g.mix.GetPct {
		return KVRequest{Op: OpGet, Key: g.key}
	}
	for i := range g.val {
		g.val[i] = byte(g.rng.Intn(256))
	}
	return KVRequest{Op: OpSet, Key: g.key, Value: g.val}
}
