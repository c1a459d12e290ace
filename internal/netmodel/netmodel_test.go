package netmodel

import (
	"testing"

	"dagger/internal/sim"
)

func TestArbiterFairRoundRobin(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArbiter(eng, 3, 10)
	var order []int
	// Instance 0 floods; instances 1 and 2 each want one transfer. Fair
	// round-robin must interleave them rather than starving.
	for i := 0; i < 3; i++ {
		inst := 0
		a.Request(inst, 1, func() { order = append(order, inst) })
	}
	a.Request(1, 1, func() { order = append(order, 1) })
	a.Request(2, 1, func() { order = append(order, 2) })
	eng.Run()
	if len(order) != 5 {
		t.Fatalf("transfers = %d, want 5", len(order))
	}
	// The first transfer is instance 0 (it asked first); the next two
	// grants must include 1 and 2 before 0's backlog drains completely.
	seen1, seen2 := -1, -1
	last0 := -1
	for i, v := range order {
		switch v {
		case 1:
			seen1 = i
		case 2:
			seen2 = i
		case 0:
			last0 = i
		}
	}
	if seen1 > 3 || seen2 > 3 {
		t.Fatalf("round robin starved: order %v", order)
	}
	if last0 < 2 {
		t.Fatalf("instance 0 backlog finished too early: %v", order)
	}
	if a.Transfers != 5 {
		t.Fatalf("arbiter transfers = %d", a.Transfers)
	}
}

func TestArbiterSerializesBus(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArbiter(eng, 2, 10)
	var times []sim.Time
	a.Request(0, 2, func() { times = append(times, eng.Now()) }) // 20 ns
	a.Request(1, 1, func() { times = append(times, eng.Now()) }) // 10 ns after
	eng.Run()
	if times[0] != 20 || times[1] != 30 {
		t.Fatalf("completion times %v, want [20 30]", times)
	}
}
