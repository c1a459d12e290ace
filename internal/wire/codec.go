package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrDecodeShort is returned when a decoder runs past the end of its buffer.
var ErrDecodeShort = errors.New("wire: decode past end of buffer")

// Encoder serializes RPC argument objects into flat payloads. It implements
// the paper's restriction (§4.5): arguments are continuous, with no
// references to other objects — fixed-width scalars, fixed-size char arrays,
// and length-prefixed byte strings.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder appending to an optional existing buffer.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset truncates the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint32 appends a little-endian uint32.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// Int32 appends a little-endian int32.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 appends a little-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Int64 appends a little-endian int64.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool appends a single byte 0/1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// CharArray appends exactly n bytes: src truncated or zero-padded. This is
// the IDL's char[N] type.
func (e *Encoder) CharArray(src []byte, n int) {
	for i := 0; i < n; i++ {
		if i < len(src) {
			e.buf = append(e.buf, src[i])
		} else {
			e.buf = append(e.buf, 0)
		}
	}
}

// Bytes16 appends a 16-bit length prefix followed by the bytes.
func (e *Encoder) Bytes16(src []byte) {
	if len(src) > 0xFFFF {
		panic(fmt.Sprintf("wire: bytes16 too long: %d", len(src)))
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(src)))
	e.buf = append(e.buf, src...)
}

// String16 appends a 16-bit length-prefixed string.
func (e *Encoder) String16(s string) {
	if len(s) > 0xFFFF {
		panic(fmt.Sprintf("wire: string16 too long: %d", len(s)))
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads values written by Encoder. All methods record the first
// error; Err must be checked after decoding.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = ErrDecodeShort
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint32 reads a little-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Int32 reads a little-endian int32.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 reads a little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads a little-endian int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Bool reads a single byte as a boolean.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// CharArray reads exactly n bytes (the IDL char[N] type). The result aliases
// the payload.
func (d *Decoder) CharArray(n int) []byte { return d.take(n) }

// Bytes16 reads a 16-bit length-prefixed byte string, aliasing the payload.
func (d *Decoder) Bytes16() []byte {
	b := d.take(2)
	if b == nil {
		return nil
	}
	n := int(binary.LittleEndian.Uint16(b))
	return d.take(n)
}

// String16 reads a 16-bit length-prefixed string. Unlike Bytes16 it must
// copy: the decoder aliases the payload buffer, and an aliased string would
// break Go's string immutability when the buffer is reused.
//
// dagger:ignore hotpathalloc the copy is the contract: an aliased string would mutate when the buffer is reused
func (d *Decoder) String16() string { return string(d.Bytes16()) }
