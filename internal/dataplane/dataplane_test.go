package dataplane

import (
	"math/rand"
	"testing"
)

func TestSchemeString(t *testing.T) {
	cases := []struct {
		s    Scheme
		want string
	}{
		{SteerStatic, "static"},
		{SteerUniform, "uniform"},
		{SteerKeyHash, "object-level"},
		{Scheme(42), "unknown"},
	}
	for _, tc := range cases {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(tc.s), got, tc.want)
		}
	}
}

func TestRoundRobinFullWidth(t *testing.T) {
	// The modulo must happen at full counter width (the PR 2 bias fix):
	// truncating the counter to uint16 first would alias every 65536
	// requests and skew the distribution for non-power-of-two flow counts.
	const nflows = 48
	if got, want := RoundRobin(1<<16, nflows), uint16((1<<16)%nflows); got != want {
		t.Fatalf("RoundRobin(65536, %d) = %d, want %d (modulo must use full counter width)", nflows, got, want)
	}
	// Consecutive counter values walk the flows in a clean cycle.
	for rr := uint32(90); rr < 190; rr++ {
		got, want := RoundRobin(rr+1, nflows), uint16((rr+1)%nflows)
		if got != want {
			t.Fatalf("RoundRobin(%d, %d) = %d, want %d", rr+1, nflows, got, want)
		}
	}
}

func TestStaticFlowWraps(t *testing.T) {
	if got := StaticFlow(7, 4); got != 3 {
		t.Fatalf("StaticFlow(7, 4) = %d, want 3", got)
	}
	if got := StaticFlow(2, 4); got != 2 {
		t.Fatalf("StaticFlow(2, 4) = %d, want 2", got)
	}
	if got := StaticFlow(9, 0); got != 0 {
		t.Fatalf("StaticFlow with 0 flows = %d, want 0", got)
	}
}

func TestHashKeyMatchesFNV1a(t *testing.T) {
	// Pinned FNV-1a vectors: if this hash ever changes, object-level
	// steering diverges between substrates and across versions.
	cases := []struct {
		key  string
		want uint32
	}{
		{"", 2166136261},
		{"a", 0xe40c292c},
		{"user:1042", HashKey([]byte("user:1042"))}, // self-consistency
	}
	for _, tc := range cases {
		if got := HashKey([]byte(tc.key)); got != tc.want {
			t.Errorf("HashKey(%q) = %#x, want %#x", tc.key, got, tc.want)
		}
	}
}

func TestSteerDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		nflows := 1 + rng.Intn(16)
		key := make([]byte, rng.Intn(24))
		rng.Read(key)
		in := SteerInput{
			NFlows:   nflows,
			ConnFlow: uint16(rng.Intn(64)),
			HasConn:  rng.Intn(2) == 0,
			Key:      key,
			RR:       rng.Uint32(),
		}
		for _, s := range []Scheme{SteerStatic, SteerUniform, SteerKeyHash} {
			a := Steer(s, in)
			b := Steer(s, in)
			if a != b {
				t.Fatalf("Steer(%v, %+v) nondeterministic: %d then %d", s, in, a, b)
			}
			if int(a) >= nflows {
				t.Fatalf("Steer(%v, %+v) = %d, out of range [0,%d)", s, in, a, nflows)
			}
		}
	}
}

func TestSteerStaticFallsBackToRoundRobin(t *testing.T) {
	in := SteerInput{NFlows: 4, HasConn: false, RR: 6}
	if got, want := Steer(SteerStatic, in), RoundRobin(6, 4); got != want {
		t.Fatalf("static steer without a connection = %d, want round-robin %d", got, want)
	}
	in.HasConn = true
	in.ConnFlow = 1
	if got := Steer(SteerStatic, in); got != 1 {
		t.Fatalf("static steer with pinned flow = %d, want 1", got)
	}
}

func TestShouldShed(t *testing.T) {
	cases := []struct {
		budget  uint32
		elapsed uint64
		want    bool
	}{
		{0, 0, false},             // no deadline: never shed
		{0, 1 << 40, false},       // no deadline even when ancient
		{100, 0, false},           // fresh request
		{100, 99, false},          // inside budget
		{100, 100, true},          // deadline exactly reached
		{100, 101, true},          // past deadline
		{1, 1, true},              // minimum budget
		{^uint32(0), 1000, false}, // huge budget
	}
	for _, tc := range cases {
		if got := ShouldShed(tc.budget, tc.elapsed); got != tc.want {
			t.Errorf("ShouldShed(%d, %d) = %v, want %v", tc.budget, tc.elapsed, got, tc.want)
		}
	}
}

func TestElapsedMicros(t *testing.T) {
	cases := []struct {
		ns   int64
		want uint64
	}{
		{-5, 0}, {0, 0}, {999, 0}, {1000, 1}, {1999, 1}, {2000, 2},
	}
	for _, tc := range cases {
		if got := ElapsedMicros(tc.ns); got != tc.want {
			t.Errorf("ElapsedMicros(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

func TestAdmit(t *testing.T) {
	cases := []struct {
		depth, capacity int
		want            bool
	}{
		{0, 4, true},
		{3, 4, true},
		{4, 4, false},
		{5, 4, false},
		{1 << 20, 0, true},  // unbounded
		{1 << 20, -1, true}, // unbounded
	}
	for _, tc := range cases {
		if got := Admit(tc.depth, tc.capacity); got != tc.want {
			t.Errorf("Admit(%d, %d) = %v, want %v", tc.depth, tc.capacity, got, tc.want)
		}
	}
}

// TestDecisionFunctionsZeroAlloc pins the allocation-free contract: these
// run per packet on both substrates' hot paths.
func TestDecisionFunctionsZeroAlloc(t *testing.T) {
	key := []byte("object:12345")
	in := SteerInput{NFlows: 8, ConnFlow: 3, HasConn: true, Key: key, RR: 41}
	var sink uint16
	var sinkB bool
	w := NewWindow(DefaultMaxWindow)
	checks := []struct {
		name string
		fn   func()
	}{
		{"Steer/static", func() { sink = Steer(SteerStatic, in) }},
		{"Steer/uniform", func() { sink = Steer(SteerUniform, in) }},
		{"Steer/keyhash", func() { sink = Steer(SteerKeyHash, in) }},
		{"HashKey", func() { sink = uint16(HashKey(key)) }},
		{"ResponseFlow", func() { sink = ResponseFlow(9, 4) }},
		{"ShouldShed", func() { sinkB = ShouldShed(250, 300) }},
		{"ElapsedMicros", func() { sinkB = ElapsedMicros(12345) > 0 }},
		{"Admit", func() { sinkB = Admit(3, 4) }},
		{"Mark", func() { sinkB = Mark(9, 16) }},
		{"OccupancyHint", func() { sinkB = OccupancyHint(9, 16) > 0 }},
		{"Window.OnResponse", func() { w.OnResponse(2, 3, true, 200) }},
		{"BackoffScale", func() { sink = uint16(BackoffScale(200)) }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per run, want 0", c.name, avg)
		}
	}
	_, _ = sink, sinkB
}
