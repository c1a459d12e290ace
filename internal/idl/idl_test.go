package idl

import (
	"strings"
	"testing"
)

// listing1 is the KVS example from the paper (Listing 1).
const listing1 = `
Message GetRequest {
    int32 timestamp;
    char[32] key;
}
Message GetResponse {
    int32 timestamp;
    char[32] value;
}
Message SetRequest {
    int32 timestamp;
    char[32] key;
    char[32] value;
}
Message SetResponse {
    int32 timestamp;
    bool ok;
}

Service KeyValueStore {
    rpc get(GetRequest) returns(GetResponse);
    rpc set(SetRequest) returns(SetResponse);
}
`

func TestParseListing1(t *testing.T) {
	f, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Messages) != 4 {
		t.Fatalf("messages = %d, want 4", len(f.Messages))
	}
	if len(f.Services) != 1 {
		t.Fatalf("services = %d, want 1", len(f.Services))
	}
	gr, ok := f.Message("GetRequest")
	if !ok {
		t.Fatal("GetRequest missing")
	}
	if len(gr.Fields) != 2 {
		t.Fatalf("GetRequest fields = %d", len(gr.Fields))
	}
	if gr.Fields[1].Kind != TypeChar || gr.Fields[1].ArrayLen != 32 {
		t.Fatalf("key field = %+v", gr.Fields[1])
	}
	svc := f.Services[0]
	if svc.Name != "KeyValueStore" || len(svc.Methods) != 2 {
		t.Fatalf("service = %+v", svc)
	}
	if svc.Methods[0].Name != "get" || svc.Methods[0].Request != "GetRequest" || svc.Methods[0].Response != "GetResponse" {
		t.Fatalf("method = %+v", svc.Methods[0])
	}
}

func TestParseComments(t *testing.T) {
	src := `
// KVS schema
Message A { int32 x; } // trailing
Service S { rpc f(A) returns(A); }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Messages) != 1 || len(f.Services) != 1 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestParseAllTypes(t *testing.T) {
	src := `
Message M {
    int32 a; int64 b; uint32 c; uint64 d;
    bool e; char[8] f; bytes g; string h;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Messages[0]
	wantKinds := []TypeKind{TypeInt32, TypeInt64, TypeUint32, TypeUint64, TypeBool, TypeChar, TypeBytes, TypeString}
	for i, k := range wantKinds {
		if m.Fields[i].Kind != k {
			t.Errorf("field %d kind = %v, want %v", i, m.Fields[i].Kind, k)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown type":      `Message M { float32 x; }`,
		"missing semicolon": `Message M { int32 x }`,
		"bad rpc":           `Service S { rpc f(A) gives(B); }`,
		"unknown req":       `Message A { int32 x; } Service S { rpc f(Nope) returns(A); }`,
		"unknown resp":      `Message A { int32 x; } Service S { rpc f(A) returns(Nope); }`,
		"dup message":       `Message A { int32 x; } Message A { int32 y; }`,
		"dup field":         `Message A { int32 x; int64 x; }`,
		"dup rpc":           `Message A { int32 x; } Service S { rpc f(A) returns(A); rpc f(A) returns(A); }`,
		"garbage":           `Banana Split`,
		"bad char":          `Message A { char[0] x; }`,
		"stray char":        `Message A { int32 x; } $`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

func TestGoName(t *testing.T) {
	cases := map[string]string{
		"timestamp":    "Timestamp",
		"get":          "Get",
		"user_mention": "UserMention",
		"KeyValue":     "KeyValue",
		"a_b_c":        "ABC",
	}
	for in, want := range cases {
		if got := GoName(in); got != want {
			t.Errorf("GoName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGenerateContainsAPI(t *testing.T) {
	f, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	src := Generate(f, "kvsproto")
	for _, want := range []string{
		"package kvsproto",
		"type GetRequest struct",
		"Timestamp int32",
		"Key       [32]byte",
		"func (m *GetRequest) MarshalDagger(e *wire.Encoder)",
		"func (m *GetRequest) UnmarshalDagger(d *wire.Decoder) error",
		"KeyValueStoreFnGet uint16 = 0",
		"KeyValueStoreFnSet uint16 = 1",
		"type KeyValueStoreClient struct",
		"func NewKeyValueStoreClient(c *core.RpcClient) *KeyValueStoreClient",
		"func (s *KeyValueStoreClient) Get(ctx context.Context, req *GetRequest) (*GetResponse, error)",
		"func (s *KeyValueStoreClient) GetAsync(ctx context.Context, req *GetRequest, cb func(*GetResponse, error)) error",
		"Get(ctx context.Context, req *GetRequest) (*GetResponse, error)",
		"type KeyValueStoreServer interface",
		"func RegisterKeyValueStore(srv *core.RpcThreadedServer, impl KeyValueStoreServer) error",
		"// Code generated by daggergen. DO NOT EDIT.",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	f, _ := Parse(listing1)
	if Generate(f, "p") != Generate(f, "p") {
		t.Fatal("codegen is nondeterministic")
	}
}
