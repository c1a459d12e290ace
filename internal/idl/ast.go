// Package idl implements Dagger's interface definition language: a
// Protobuf-inspired schema (the paper adopts the Google Protobuf IDL shape,
// Listing 1) with fixed-layout types, plus a Go code generator that emits
// message codecs, client stubs, and server dispatch glue over the core RPC
// API.
//
// Grammar (semicolons terminate fields and rpcs):
//
//	Message GetRequest {
//	    int32    timestamp;
//	    char[32] key;
//	}
//
//	Service KeyValueStore {
//	    rpc get(GetRequest) returns(GetResponse);
//	    rpc set(SetRequest) returns(SetResponse);
//	}
//
// Field types: int32, int64, uint32, uint64, bool, char[N] (fixed byte
// array), bytes and string (16-bit length-prefixed). The layout restriction
// mirrors §4.5: arguments are continuous objects without references.
package idl

import "fmt"

// TypeKind enumerates IDL field types.
type TypeKind int

// Field type kinds.
const (
	TypeInt32 TypeKind = iota
	TypeInt64
	TypeUint32
	TypeUint64
	TypeBool
	TypeChar  // char[N]
	TypeBytes // length-prefixed
	TypeString
)

func (k TypeKind) String() string {
	switch k {
	case TypeInt32:
		return "int32"
	case TypeInt64:
		return "int64"
	case TypeUint32:
		return "uint32"
	case TypeUint64:
		return "uint64"
	case TypeBool:
		return "bool"
	case TypeChar:
		return "char[]"
	case TypeBytes:
		return "bytes"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int(k))
	}
}

// Field is one message field.
type Field struct {
	Name     string
	Kind     TypeKind
	ArrayLen int // for TypeChar
}

// Message is a named record type.
type Message struct {
	Name   string
	Fields []Field
}

// Method is one rpc declaration in a service.
type Method struct {
	Name     string
	Request  string
	Response string
}

// Service is a named group of rpc methods.
type Service struct {
	Name    string
	Methods []Method
}

// File is a parsed IDL file.
type File struct {
	Messages []Message
	Services []Service
}

// Message looks up a message by name.
func (f *File) Message(name string) (Message, bool) {
	for _, m := range f.Messages {
		if m.Name == name {
			return m, true
		}
	}
	return Message{}, false
}

// Validate checks cross-references: every rpc request/response must name a
// declared message, and names must be unique.
func (f *File) Validate() error {
	seen := map[string]bool{}
	for _, m := range f.Messages {
		if seen[m.Name] {
			return fmt.Errorf("idl: duplicate message %q", m.Name)
		}
		seen[m.Name] = true
		fields := map[string]bool{}
		for _, fl := range m.Fields {
			if fields[fl.Name] {
				return fmt.Errorf("idl: duplicate field %q in message %q", fl.Name, m.Name)
			}
			fields[fl.Name] = true
			if fl.Kind == TypeChar && fl.ArrayLen <= 0 {
				return fmt.Errorf("idl: char array %q.%q needs positive length", m.Name, fl.Name)
			}
		}
	}
	svcSeen := map[string]bool{}
	for _, s := range f.Services {
		if svcSeen[s.Name] {
			return fmt.Errorf("idl: duplicate service %q", s.Name)
		}
		svcSeen[s.Name] = true
		mSeen := map[string]bool{}
		for _, m := range s.Methods {
			if mSeen[m.Name] {
				return fmt.Errorf("idl: duplicate rpc %q in service %q", m.Name, s.Name)
			}
			mSeen[m.Name] = true
			if _, ok := f.Message(m.Request); !ok {
				return fmt.Errorf("idl: rpc %s.%s: unknown request type %q", s.Name, m.Name, m.Request)
			}
			if _, ok := f.Message(m.Response); !ok {
				return fmt.Errorf("idl: rpc %s.%s: unknown response type %q", s.Name, m.Name, m.Response)
			}
		}
	}
	return nil
}
