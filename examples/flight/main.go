// Flight Registration example: the paper's 8-tier microservice application
// (§5.7, Figure 13) running end to end on the Dagger RPC stack, under both
// threading models, with the request tracing system pointing at the
// bottleneck tier.
//
// Run with: go run ./examples/flight
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"dagger/internal/flight"
	"dagger/internal/trace"
)

func main() {
	// ---- Functional run: real registrations through all eight tiers ----
	for _, mode := range []struct {
		name string
		cfg  flight.Config
	}{
		{"Simple (dispatch threads)", flight.Config{Citizens: 500, FlightWork: 2 * time.Millisecond}},
		{"Optimized (worker threads)", flight.Config{
			Citizens: 500, FlightWork: 2 * time.Millisecond,
			Threading: flight.OptimizedThreading(4),
		}},
	} {
		app, err := flight.New(mode.cfg)
		if err != nil {
			log.Fatal(err)
		}
		const n = 8
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rec, err := app.RegisterPassenger(flight.Passenger{
					ID: uint64(i), FlightNo: uint32(1000 + i), Bags: uint32(i % 4),
				})
				if err != nil {
					log.Printf("register %d: %v", i, err)
					return
				}
				if i == 0 {
					fmt.Printf("  sample record: passenger=%d flight=%d gate=%d passportOK=%v\n",
						rec.PassengerID, rec.FlightNo, rec.Gate, rec.PassportOK)
				}
			}(i)
		}
		wg.Wait()
		fmt.Printf("%s: %d concurrent registrations in %v\n", mode.name, n, time.Since(start).Round(time.Millisecond))

		// The staff front-end audits the Airport database asynchronously.
		rec, err := app.StaffLookup(3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  staff audit of passenger 3: flight=%d gate=%d\n\n", rec.FlightNo, rec.Gate)
		app.Close()
	}

	// ---- Timing model: the Table 4 experiment at paper scale ----
	fmt.Println("Timing model (Table 4 conditions):")
	for _, th := range []flight.Threading{flight.Simple, flight.Optimized} {
		tr := trace.NewCollector()
		res := flight.RunModel(flight.ModelConfig{
			Threading: th, LoadRPS: 2000, Requests: 20000, Seed: 1, Tracer: tr,
		})
		fmt.Printf("  %-9s @2Krps: med=%5.1fus p99=%6.1fus drops=%.2f%% bottleneck=%s\n",
			th,
			float64(res.Latency.Percentile(50))/1e3,
			float64(res.Latency.Percentile(99))/1e3,
			100*res.DropFrac(),
			tr.Analyze().Bottleneck())
	}
}
