// Quickstart: a minimal Dagger RPC client and server.
//
// It creates an in-process acceleration fabric, brings up a NIC for each
// endpoint, registers a greeter function on an RpcThreadedServer, and calls
// it synchronously and asynchronously from an RpcClient — the §4.2
// programming model end to end.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
)

const (
	clientAddr = 0x0A000001
	serverAddr = 0x0A000002
	fnGreet    = 0
)

func main() {
	// The fabric plays the role of the FPGA + network: it hosts a software
	// NIC per endpoint and steers frames between them.
	fab := fabric.NewFabric()
	clientNIC, err := fab.CreateNIC(clientAddr, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	serverNIC, err := fab.CreateNIC(serverAddr, 2, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Server: one dispatch thread per NIC flow runs the handler directly
	// (the low-latency threading model).
	srv := core.NewRpcThreadedServer(serverNIC, core.ServerConfig{})
	if err := srv.Register(fnGreet, "greeter.greet", func(_ context.Context, req []byte) ([]byte, error) {
		return []byte("Hello, " + string(req) + "!"), nil
	}); err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	// Client: bound to flow 0 of its NIC, one connection to the server.
	cli, err := core.NewRpcClient(clientNIC, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(serverAddr); err != nil {
		log.Fatal(err)
	}

	// Synchronous (blocking) call. The context deadline becomes the RPC's
	// budget on the wire: every downstream tier sees the time remaining and
	// sheds the request once it expires instead of doing doomed work.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := cli.CallContext(ctx, fnGreet, []byte("Dagger"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sync :", string(resp))

	// Asynchronous (non-blocking) calls with completion callbacks.
	var wg sync.WaitGroup
	for _, name := range []string{"microservices", "FPGAs", "memory interconnects"} {
		wg.Add(1)
		name := name
		if err := cli.CallAsyncContext(ctx, fnGreet, []byte(name), func(resp []byte, err error) {
			defer wg.Done()
			if err != nil {
				log.Printf("async %s: %v", name, err)
				return
			}
			fmt.Println("async:", string(resp))
		}); err != nil {
			log.Fatal(err)
		}
	}
	wg.Wait()
	// Every async completion was also queued before its callback ran; poll
	// them and return their reply buffers to the client's pool.
	done := cli.CompletionQueue().Poll(0)
	for _, c := range done {
		cli.Release(c.Resp)
	}
	fmt.Printf("completion queue drained %d entries\n", len(done))
}
