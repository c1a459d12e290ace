package experiments

import (
	"fmt"
	"io"

	"dagger/internal/interconnect"
	"dagger/internal/nicmodel"
)

// RunAblations sweeps the design decisions DESIGN.md §5 calls out — batch
// width, connection-cache sizing, HCC residency — and prints their effect.
func RunAblations(w io.Writer, quick bool) error {
	n := reqs(quick, 100_000)

	fmt.Fprintln(w, "Ablation sweeps for the design decisions of DESIGN.md §5")
	fmt.Fprintln(w, "Ablation: CCI-P batch width B (single-core saturation, 64B RPCs)")
	for _, b := range []int{1, 2, 4, 8, 16} {
		cfg := interconnect.Config{Kind: interconnect.UPI, Batch: b}
		sat := RunEcho(EchoConfig{Iface: cfg, Requests: n, Seed: int64(b)})
		lowLoad := RunEcho(EchoConfig{Iface: cfg, OfferedRPS: 1e6, Requests: n / 2, Seed: int64(b) + 50})
		fmt.Fprintf(w, "  B=%-3d thr=%5.1f Mrps   low-load med=%5.2fus (batch-fill wait)\n",
			b, sat.Mrps(), lowLoad.MedianUs())
	}

	fmt.Fprintln(w, "Ablation: connection-cache sizing (direct-mapped, 64 entries)")
	for _, conns := range []int{32, 64, 128, 512} {
		cm := nicmodel.NewConnectionManager(64)
		for i := 0; i < conns; i++ {
			if err := cm.Open(uint32(i), nicmodel.ConnTuple{SrcFlow: uint16(i)}); err != nil {
				return err
			}
		}
		lookups := 10_000
		var penalty int64
		for i := 0; i < lookups; i++ {
			_, p, err := cm.Lookup(uint32(i % conns))
			if err != nil {
				return err
			}
			penalty += int64(p)
		}
		fmt.Fprintf(w, "  %4d connections: hit rate %5.1f%%, mean lookup penalty %5.1f ns\n",
			conns, 100*cm.HitRate(), float64(penalty)/float64(lookups))
	}

	fmt.Fprintln(w, "Ablation: HCC residency (128 KB direct-mapped)")
	for _, footprint := range []uint64{32 << 10, 128 << 10, 512 << 10} {
		h := nicmodel.NewHCC()
		accesses := 20_000
		var penalty int64
		for i := 0; i < accesses; i++ {
			penalty += int64(h.Access(uint64(i*64) % footprint))
		}
		fmt.Fprintf(w, "  %4d KB working set: hit rate %5.1f%%, mean access penalty %5.1f ns\n",
			footprint>>10, 100*h.HitRate(), float64(penalty)/float64(accesses))
	}

	fmt.Fprintln(w, "Ablation: interface family at equal batch (B=1)")
	for _, cfg := range []interconnect.Config{
		{Kind: interconnect.MMIO, Batch: 1},
		{Kind: interconnect.Doorbell, Batch: 1},
		{Kind: interconnect.UPI, Batch: 1},
	} {
		sat := RunEcho(EchoConfig{Iface: cfg, Requests: n, Seed: 3})
		fmt.Fprintf(w, "  %-10s thr=%5.1f Mrps (isolates the communication model from batching)\n",
			cfg.Name(), sat.Mrps())
	}
	return nil
}
