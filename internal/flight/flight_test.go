package flight

import (
	"testing"
	"time"

	"dagger/internal/core"
	"dagger/internal/trace"
)

func TestFunctionalAppRegistersPassenger(t *testing.T) {
	app, err := New(Config{Citizens: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	p := Passenger{ID: 7, FlightNo: 1234, Bags: 2}
	rec, err := app.RegisterPassenger(p)
	if err != nil {
		t.Fatal(err)
	}
	if rec.PassengerID != 7 || rec.FlightNo != 1234 || rec.Bags != 2 {
		t.Fatalf("record = %+v", rec)
	}
	if !rec.PassportOK {
		t.Fatal("seeded citizen failed passport check")
	}
	if rec.Gate != 100+1234%64 {
		t.Fatalf("gate = %d", rec.Gate)
	}
}

func TestFunctionalAppStaffLookup(t *testing.T) {
	app, err := New(Config{Citizens: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterPassenger(Passenger{ID: 9, FlightNo: 42, Bags: 1}); err != nil {
		t.Fatal(err)
	}
	rec, err := app.StaffLookup(9)
	if err != nil {
		t.Fatal(err)
	}
	if rec.PassengerID != 9 || rec.FlightNo != 42 {
		t.Fatalf("staff view = %+v", rec)
	}
	if _, err := app.StaffLookup(424242); err == nil {
		t.Fatal("lookup of unregistered passenger succeeded")
	}
}

func TestFunctionalAppUnknownCitizen(t *testing.T) {
	app, err := New(Config{Citizens: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	rec, err := app.RegisterPassenger(Passenger{ID: 999999, FlightNo: 1, Bags: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rec.PassportOK {
		t.Fatal("unknown citizen passed passport check")
	}
}

func TestFunctionalAppTooManyBags(t *testing.T) {
	app, err := New(Config{Citizens: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	rec, err := app.RegisterPassenger(Passenger{ID: 1, FlightNo: 1, Bags: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rec.PassportOK {
		t.Fatal("over-allowance passenger approved")
	}
}

func TestFunctionalAppOptimizedThreading(t *testing.T) {
	app, err := New(Config{
		Citizens:   100,
		Threading:  OptimizedThreading(4),
		FlightWork: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	// Concurrent registrations overlap the slow Flight service under the
	// worker model.
	start := time.Now()
	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			_, err := app.RegisterPassenger(Passenger{ID: uint64(i), FlightNo: uint32(i), Bags: 1})
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed > time.Duration(n)*2*time.Millisecond {
		t.Fatalf("worker threading did not overlap flight lookups: %v", elapsed)
	}
}

func TestPassengerRecordCodecs(t *testing.T) {
	p := Passenger{ID: 123456789, FlightNo: 777, Bags: 3}
	got, err := decodePassenger(p.encode())
	if err != nil || got != p {
		t.Fatalf("passenger round trip: %+v %v", got, err)
	}
	r := Record{PassengerID: 5, FlightNo: 6, Gate: 107, Bags: 1, PassportOK: true}
	got2, err := decodeRecord(r.encode())
	if err != nil || got2 != r {
		t.Fatalf("record round trip: %+v %v", got2, err)
	}
}

func TestOptimizedThreadingMap(t *testing.T) {
	m := OptimizedThreading(8)
	for _, tier := range []string{"Flight", "CheckIn", "Passport"} {
		cfg, ok := m[tier]
		if !ok || cfg.Threading != core.WorkerThreads || cfg.Workers != 8 {
			t.Fatalf("tier %s config = %+v", tier, cfg)
		}
	}
	if _, ok := m["Baggage"]; ok {
		t.Fatal("Baggage should stay on dispatch threads")
	}
}

// ===== Timing model (Table 4 / Figure 15) =====

func TestModelLowLoadLatency(t *testing.T) {
	simple := RunModel(ModelConfig{Threading: Simple, LoadRPS: 1000, Requests: 8000, Seed: 1})
	opt := RunModel(ModelConfig{Threading: Optimized, LoadRPS: 1000, Requests: 8000, Seed: 1})
	sMed := simple.Latency.Percentile(50)
	oMed := opt.Latency.Percentile(50)
	// Table 4: Simple has the lower baseline latency (13.3us vs 23.4us);
	// both are tens of microseconds.
	if sMed >= oMed {
		t.Errorf("simple median %v should beat optimized %v", sMed, oMed)
	}
	if sMed < 8_000 || sMed > 25_000 {
		t.Errorf("simple median %v ns outside the paper's ~13us scale", sMed)
	}
	if oMed < 15_000 || oMed > 40_000 {
		t.Errorf("optimized median %v ns outside the paper's ~23us scale", oMed)
	}
	// Tails at low load stay microsecond-scale.
	if simple.Latency.Percentile(99) > 100_000 {
		t.Errorf("simple p99 %v ns should be us-scale at low load", simple.Latency.Percentile(99))
	}
}

// The tracing system finds the Flight tier as the bottleneck, as §5.7's
// profiling did.
func TestModelTraceFindsFlightBottleneck(t *testing.T) {
	tr := trace.NewCollector()
	RunModel(ModelConfig{Threading: Simple, LoadRPS: 2000, Requests: 10000, Seed: 9, Tracer: tr})
	rep := tr.Analyze()
	if rep.Bottleneck() != "Flight" {
		t.Fatalf("bottleneck = %q, want Flight\n%s", rep.Bottleneck(), rep)
	}
}

func TestModelDeterminism(t *testing.T) {
	a := RunModel(ModelConfig{Threading: Optimized, LoadRPS: 20000, Requests: 5000, Seed: 11})
	b := RunModel(ModelConfig{Threading: Optimized, LoadRPS: 20000, Requests: 5000, Seed: 11})
	if a.Completed != b.Completed || a.Dropped != b.Dropped ||
		a.Latency.Percentile(99) != b.Latency.Percentile(99) {
		t.Fatal("same seed produced different model results")
	}
}
