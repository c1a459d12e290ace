package nicmodel

import (
	"dagger/internal/metrics"
	"dagger/internal/sim"
)

// HCC models the Host Coherent Cache (§4.1): a small direct-mapped cache in
// the blue bitstream, fully coherent with host memory over CCI-P. The NIC
// keeps connection state and transport structures in it while the backing
// data lives in host DRAM, so the FPGA needs no dedicated DRAM and misses
// are serviced by the coherence protocol rather than explicit DMA.
type HCC struct {
	lineBits uint
	tags     []uint64
	valid    []bool

	// Counters are metrics.Counter (atomic) so a registry snapshot taken
	// from another goroutine never races Access.
	Hits   metrics.Counter
	Misses metrics.Counter
}

// DescribeMetrics registers the cache's hit/miss counters into reg.
func (h *HCC) DescribeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("hcc.hits", &h.Hits)
	reg.RegisterCounter("hcc.misses", &h.Misses)
}

// HCC geometry from the paper: 128 KB direct-mapped, 64 B lines.
const (
	HCCSizeBytes = 128 * 1024
	HCCLineBytes = 64
	hccLines     = HCCSizeBytes / HCCLineBytes
)

// HCCMissPenalty is the latency of pulling a line from host DRAM through
// the coherence protocol on a miss. Cheaper than a PCIe NIC's cache miss
// (§4.1) because CCI-P keeps the copies consistent in hardware.
const HCCMissPenalty sim.Time = 500

// NewHCC returns an empty cache.
func NewHCC() *HCC {
	return &HCC{
		lineBits: 6,
		tags:     make([]uint64, hccLines),
		valid:    make([]bool, hccLines),
	}
}

// Access touches the line containing addr, returning the access latency:
// zero for a hit, HCCMissPenalty for a miss (after which the line is
// resident).
func (h *HCC) Access(addr uint64) sim.Time {
	line := addr >> h.lineBits
	idx := line % hccLines
	if h.valid[idx] && h.tags[idx] == line {
		h.Hits.Inc()
		return 0
	}
	h.Misses.Inc()
	h.valid[idx] = true
	h.tags[idx] = line
	return HCCMissPenalty
}

// HitRate returns the fraction of accesses that hit.
func (h *HCC) HitRate() float64 {
	hits := h.Hits.Load()
	total := hits + h.Misses.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
