package nicmodel

import (
	"dagger/internal/dataplane"
)

// Steer describes one steering decision's inputs.
type Steer struct {
	ConnFlow uint16 // flow from the connection tuple (static scheme)
	Key      []byte // request key (object-level scheme)
}

// Balancer steers incoming RPCs to one of NFlows flow FIFOs (§4.4.2, §5.7).
// It is a thin stateful shell — the round-robin counter and flow count —
// around the pure decision functions in internal/dataplane, which the
// functional stack's fabric shares verbatim, so the two substrates cannot
// drift.
type Balancer struct {
	scheme dataplane.Scheme
	nflows int
	rr     uint32
}

// NewBalancer creates a balancer over nflows flows.
func NewBalancer(scheme dataplane.Scheme, nflows int) *Balancer {
	if nflows <= 0 {
		panic("nicmodel: balancer needs at least one flow")
	}
	return &Balancer{scheme: scheme, nflows: nflows}
}

// Pick returns the target flow for one request.
func (b *Balancer) Pick(s Steer) uint16 {
	in := dataplane.SteerInput{
		NFlows:   b.nflows,
		ConnFlow: s.ConnFlow,
		HasConn:  true,
		Key:      s.Key,
		RR:       b.rr,
	}
	f := dataplane.Steer(b.scheme, in)
	if b.scheme == dataplane.SteerUniform {
		b.rr++
	}
	return f
}
