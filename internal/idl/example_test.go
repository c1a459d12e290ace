package idl_test

import (
	"fmt"
	"log"
	"strings"

	"dagger/internal/idl"
)

// Example parses the paper's Listing 1 schema and generates Go bindings.
func Example() {
	const schema = `
Message PingRequest  { int64 nonce; }
Message PingResponse { int64 nonce; bool ok; }

Service Health {
    rpc ping(PingRequest) returns(PingResponse);
}
`
	file, err := idl.Parse(schema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("messages=%d services=%d\n", len(file.Messages), len(file.Services))

	src := idl.Generate(file, "healthpb")
	fmt.Println(strings.Contains(src, "func (s *HealthClient) Ping(ctx context.Context, req *PingRequest) (*PingResponse, error)"))
	fmt.Println(strings.Contains(src, "type HealthServer interface"))
	// Output:
	// messages=2 services=1
	// true
	// true
}
