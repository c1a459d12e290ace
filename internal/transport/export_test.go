package transport

// Unacked returns the number of packets awaiting acknowledgement.
func (r *Reliable) Unacked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.peers {
		n += p.inflight
	}
	return n
}

// Queued returns the number of packets waiting behind congestion windows.
func (r *Reliable) Queued() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.peers {
		n += len(p.waiting)
	}
	return n
}

// Window returns the current congestion window (in packets) toward a peer,
// or the initial window if no session exists yet.
func (r *Reliable) Window(endpoint Endpoint) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[endpoint]; p != nil {
		return p.cwnd
	}
	return r.initWnd
}
