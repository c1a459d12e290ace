//go:build !race

package transport

import (
	"testing"
	"time"
)

// Once warm, the reliable protocol allocates nothing: a request out, its
// delivery, and the response that carries its ack back (whose own ack rides
// on the next request). AllocsPerRun counts process-wide mallocs; excluded
// under -race, whose instrumentation allocates on its own behalf.
func TestReliableRoundTripZeroAlloc(t *testing.T) {
	ca, cb := newPipe("a", "b")
	opts := ReliableOptions{RTO: time.Minute}
	a, b := NewReliable(ca, opts), NewReliable(cb, opts)
	defer a.Close()
	defer b.Close()
	delivered := 0
	a.SetHandler(func([]byte, string) { delivered++ })
	b.SetHandler(func([]byte, string) { delivered++ })
	req, resp := make([]byte, 64), make([]byte, 64)
	roundTrip := func() {
		_ = a.Send("b", req) // pipeConn never fails
		_ = b.Send("a", resp)
	}
	// Touch every slot of the default 1024-slot send ring once.
	for i := 0; i < 2048; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(500, roundTrip); avg != 0 {
		t.Fatalf("warm round trip allocates %.2f times/op; want 0", avg)
	}
	if want := 2 * (2048 + 501); delivered != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
	if a.Unacked() != 0 {
		t.Fatalf("requester unacked = %d", a.Unacked())
	}
}

// A warm UDPConn.Send resolves nothing and formats nothing: the endpoint
// cache hands it the address.
func TestUDPSendZeroAlloc(t *testing.T) {
	a, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetHandler(func([]byte, string) {})
	ep, pkt := b.LocalEndpoint(), make([]byte, 64)
	if err := a.Send(ep, pkt); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() { _ = a.Send(ep, pkt) }); avg != 0 {
		t.Fatalf("warm UDPConn.Send allocates %.2f times/op; want 0", avg)
	}
}
