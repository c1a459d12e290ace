package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Bucket is one non-empty histogram bucket: Low is the smallest value
// mapping into it (stats.BucketLow), Count the number of observations.
type Bucket struct {
	Low   int64  `json:"low"`
	Count uint64 `json:"count"`
}

// Sample is one captured metric. For counters and gauges Value is the
// count/level; for histograms Value is the observation count, Sum the
// running sum, and Buckets the non-empty buckets in ascending order.
type Sample struct {
	Name    string   `json:"name"`
	Kind    Kind     `json:"kind"`
	Value   int64    `json:"value"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile returns the lower bound of the bucket containing the p-th
// percentile observation, p in [0, 100]. Zero for non-histogram or empty
// samples.
func (s Sample) Quantile(p float64) int64 {
	return quantileFromBuckets(s.Buckets, p)
}

func quantileFromBuckets(buckets []Bucket, p float64) int64 {
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for _, b := range buckets {
		seen += b.Count
		if seen >= rank {
			return b.Low
		}
	}
	return buckets[len(buckets)-1].Low
}

// Snapshot is a point-in-time capture of a registry: samples stable-sorted
// by name. The zero value is an empty snapshot.
type Snapshot struct {
	Samples []Sample `json:"samples"`
}

// Get returns the sample with the given name, or a zero Sample and false.
func (s Snapshot) Get(name string) (Sample, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Name >= name })
	if i < len(s.Samples) && s.Samples[i].Name == name {
		return s.Samples[i], true
	}
	return Sample{}, false
}

// Value returns the named sample's Value, or 0 if absent.
func (s Snapshot) Value(name string) int64 {
	sm, _ := s.Get(name)
	return sm.Value
}

// Filter returns the samples whose names start with any of the given
// dotted prefixes. A prefix matches the exact name or any name under it
// ("conn" matches "conn.hits" but not "connect.x"). Sort order is
// preserved.
func (s Snapshot) Filter(prefixes ...string) Snapshot {
	out := Snapshot{}
	for _, sm := range s.Samples {
		for _, p := range prefixes {
			if sm.Name == p || (strings.HasPrefix(sm.Name, p) && len(sm.Name) > len(p) && sm.Name[len(p)] == '.') {
				out.Samples = append(out.Samples, sm)
				break
			}
		}
	}
	return out
}

// Delta returns s minus prev, matched by name: counter/gauge values and
// histogram bucket counts subtract; samples absent from prev pass through
// unchanged; samples only in prev are dropped. Use it to isolate one
// experiment phase from a shared registry.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{Samples: make([]Sample, 0, len(s.Samples))}
	for _, cur := range s.Samples {
		old, ok := prev.Get(cur.Name)
		if !ok {
			out.Samples = append(out.Samples, cur)
			continue
		}
		d := cur
		d.Value = cur.Value - old.Value
		d.Sum = cur.Sum - old.Sum
		if len(cur.Buckets) > 0 || len(old.Buckets) > 0 {
			d.Buckets = subtractBuckets(cur.Buckets, old.Buckets)
		}
		out.Samples = append(out.Samples, d)
	}
	return out
}

// subtractBuckets subtracts old bucket counts from cur by Low value,
// dropping buckets that reach zero. Counts never decrease in a live
// histogram, so a missing cur bucket with an old count only arises from
// mismatched snapshots; it is dropped rather than inventing negatives.
func subtractBuckets(cur, old []Bucket) []Bucket {
	oldAt := make(map[int64]uint64, len(old))
	for _, b := range old {
		oldAt[b.Low] = b.Count
	}
	out := make([]Bucket, 0, len(cur))
	for _, b := range cur {
		n := b.Count - oldAt[b.Low]
		if n > 0 && n <= b.Count {
			out = append(out, Bucket{Low: b.Low, Count: n})
		}
	}
	return out
}

// Merge combines snapshots into one, re-sorted by name. Duplicate names
// across inputs panic, so per-component snapshots must use distinct names.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{}
	seen := make(map[string]bool)
	for _, s := range snaps {
		for _, sm := range s.Samples {
			if seen[sm.Name] {
				panic(fmt.Sprintf("metrics: Merge duplicate sample name %q", sm.Name))
			}
			seen[sm.Name] = true
			out.Samples = append(out.Samples, sm)
		}
	}
	sort.Slice(out.Samples, func(i, j int) bool { return out.Samples[i].Name < out.Samples[j].Name })
	return out
}

// Diff reports the differences between two snapshots as newline-separated
// "name: a=x b=y" lines, or "" when byte-identical. Parity tests assert
// Diff == "".
func Diff(a, b Snapshot) string {
	out := make([]string, 0, len(a.Samples)+len(b.Samples))
	i, j := 0, 0
	for i < len(a.Samples) || j < len(b.Samples) {
		switch {
		case j >= len(b.Samples) || (i < len(a.Samples) && a.Samples[i].Name < b.Samples[j].Name):
			// dagger:ignore hotpathalloc Diff is a diagnostics-only slow path; readable formatting wins
			out = append(out, fmt.Sprintf("%s: only in a (value=%d)", a.Samples[i].Name, a.Samples[i].Value))
			i++
		case i >= len(a.Samples) || b.Samples[j].Name < a.Samples[i].Name:
			// dagger:ignore hotpathalloc Diff is a diagnostics-only slow path; readable formatting wins
			out = append(out, fmt.Sprintf("%s: only in b (value=%d)", b.Samples[j].Name, b.Samples[j].Value))
			j++
		default:
			sa, sb := a.Samples[i], b.Samples[j]
			if sa.Kind != sb.Kind || sa.Value != sb.Value || sa.Sum != sb.Sum || !bucketsEqual(sa.Buckets, sb.Buckets) {
				// dagger:ignore hotpathalloc Diff is a diagnostics-only slow path; readable formatting wins
				out = append(out, fmt.Sprintf("%s: a={kind=%s value=%d sum=%d buckets=%v} b={kind=%s value=%d sum=%d buckets=%v}",
					sa.Name, sa.Kind, sa.Value, sa.Sum, sa.Buckets, sb.Kind, sb.Value, sb.Sum, sb.Buckets))
			}
			i++
			j++
		}
	}
	return strings.Join(out, "\n")
}

func bucketsEqual(a, b []Bucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
