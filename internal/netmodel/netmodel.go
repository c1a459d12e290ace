// Package netmodel holds the network between Dagger NICs: the two fixed
// delays of the paper's loopback and ToR setups (§5.1, §5.7), and the
// round-robin PCIe/UPI arbiter that shares one physical FPGA's CCI-P bus
// among virtualized NIC instances (Figure 14).
package netmodel

import "dagger/internal/sim"

// ToRDelay is the top-of-rack switch delay assumed in the paper's Table 3
// comparison (0.3 us round trip contribution: 150 ns per crossing).
const ToRDelay sim.Time = 150

// LoopbackDelay is the on-FPGA loopback network delay between two NIC
// instances on the same device (§5.1's evaluation topology).
const LoopbackDelay sim.Time = 50

// Arbiter models the PCIe/UPI arbiter of Figure 14: fair round-robin
// sharing of the CCI-P bus among NIC instances on one FPGA. Each transfer
// occupies the bus for its serialization time; waiting instances are served
// round-robin by instance id.
type Arbiter struct {
	eng       *sim.Engine
	perLine   sim.Time
	busyUntil sim.Time
	queues    [][]func()
	next      int
	inService bool

	Transfers uint64
}

// NewArbiter creates an arbiter over n instances with a per-cache-line bus
// occupancy (UPI at 19.2 GB/s moves a 64 B line in ~3.3 ns).
func NewArbiter(eng *sim.Engine, n int, perLine sim.Time) *Arbiter {
	if n <= 0 {
		panic("netmodel: arbiter needs at least one instance")
	}
	if perLine <= 0 {
		perLine = 4
	}
	return &Arbiter{eng: eng, perLine: perLine, queues: make([][]func(), n)}
}

// Request asks for the bus on behalf of an instance for `lines` cache
// lines; fn runs when the transfer completes.
func (a *Arbiter) Request(instance, lines int, fn func()) {
	if instance < 0 || instance >= len(a.queues) {
		panic("netmodel: arbiter instance out of range")
	}
	if lines < 1 {
		lines = 1
	}
	a.queues[instance] = append(a.queues[instance], func() {
		a.eng.After(sim.Time(lines)*a.perLine, func() {
			a.Transfers++
			a.inService = false
			a.dispatch()
			fn()
		})
	})
	if !a.inService {
		a.dispatch()
	}
}

func (a *Arbiter) dispatch() {
	if a.inService {
		return
	}
	for i := 0; i < len(a.queues); i++ {
		idx := (a.next + i) % len(a.queues)
		if len(a.queues[idx]) > 0 {
			job := a.queues[idx][0]
			a.queues[idx] = a.queues[idx][1:]
			a.next = (idx + 1) % len(a.queues)
			a.inService = true
			job()
			return
		}
	}
}
