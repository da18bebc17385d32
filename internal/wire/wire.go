// Package wire is the one binary encoding INP message bodies and packed PAD
// modules share: strings and byte runs are uvarint length + bytes, slice
// fields carry a presence-aware prefix (0 = nil, n+1 = n elements), ints
// are zig-zag varints, float64s are 8 big-endian IEEE-754 bytes, digests
// are raw fixed-width bytes. Varints must be minimal, so a decoded value
// re-encodes to the bytes it came from. Reader is also how the bitmap,
// vary-block and rsync decoders read their payloads: every count a peer
// sends is bounded here.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The append primitives extend b with one field each.

func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat keeps every bit, so NaN and the infinities round-trip.
func AppendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes writes what Reader.Bytes reads.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendCount writes the presence-aware prefix of a slice field.
func AppendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

var (
	errTruncated  = errors.New("truncated field")
	errNonMinimal = errors.New("non-minimal varint")
)

// Reader decodes the encoding. Every wire-declared length is bound-checked
// against the bytes actually present before any allocation is sized from
// it, so a hostile length cannot inflate memory. The first failure sticks:
// later reads return zero values and consume nothing, so a codec
// description reads its fields straight through and checks once, in Done.
// A Reader is small and meant to be passed by value.
type Reader struct {
	b     []byte
	off   int
	err   error
	owned bool // decoded values may keep slices of b
}

// NewReader reads b. owned says Blob may alias b instead of copying: nothing
// will ever write b again, or its owner copies out what it keeps before it
// does (inp.Conn.CallInto).
func NewReader(b []byte, owned bool) Reader { return Reader{b: b, owned: owned} }

// Err is the first failure so far.
func (r *Reader) Err() error { return r.err }

// Done is the verdict of a finished decode: the first field error, or
// trailing bytes the description did not consume.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Take consumes the next n bytes, or fails if fewer remain. The result
// aliases the input, capacity clipped so an append cannot reach the bytes
// behind it.
func (r *Reader) Take(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.b)-r.off) {
		r.err = errTruncated
	}
	if r.err != nil {
		return nil
	}
	end := r.off + int(n)
	p := r.b[r.off:end:end]
	r.off = end
	return p
}

// advance consumes a varint of n bytes, n as binary.Uvarint and Varint
// return it: truncated, overlong and non-minimal encodings fail.
func (r *Reader) advance(n int) bool {
	switch {
	case n <= 0:
		r.err = errTruncated
	case n > 1 && r.b[r.off+n-1] == 0:
		r.err = errNonMinimal
	default:
		r.off += n
		return true
	}
	return false
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if !r.advance(n) {
		return 0
	}
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if !r.advance(n) {
		return 0
	}
	return v
}

func (r *Reader) Int() int { return int(r.Varint()) }

func (r *Reader) Bool() bool {
	p := r.Take(1)
	if len(p) == 1 && p[0] > 1 {
		r.err = fmt.Errorf("bad bool byte %d", p[0])
	}
	return len(p) == 1 && p[0] == 1
}

func (r *Reader) Float() float64 {
	if p := r.Take(8); len(p) == 8 {
		return math.Float64frombits(binary.BigEndian.Uint64(p))
	}
	return 0
}

// Str reads a string; the string is a copy.
func (r *Reader) Str() string { return string(r.Take(r.Uvarint())) }

// Bytes reads a byte run as Take returns it.
func (r *Reader) Bytes() []byte { return r.Take(r.Uvarint()) }

// Count reads a presence-aware slice prefix. The element count is bounded
// by the bytes left — every element costs at least one — so callers may
// size an allocation from it.
func (r *Reader) Count() (n int, present bool) {
	v := r.Uvarint()
	if v == 0 {
		return 0, false
	}
	if v--; v > uint64(len(r.b)-r.off) {
		r.err = errTruncated
		return 0, false
	}
	return int(v), true
}

// Blob reads a byte slice behind a Count prefix. It aliases the input iff
// the input is owned (see NewReader): everywhere else — a session Conn's
// reused body buffer, a caller's slice handed to inp.DecodeRaw — the bytes
// are overwritten while decoded payloads outlive them, so they are copied.
func (r *Reader) Blob() []byte {
	n, ok := r.Count()
	if !ok {
		return nil
	}
	p := r.Take(uint64(n))
	if r.owned {
		return p
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// Strs reads a string slice: a Count prefix and its elements.
func (r *Reader) Strs() []string {
	n, ok := r.Count()
	if !ok {
		return nil
	}
	out := make([]string, n)
	for i := 0; i < n && r.err == nil; i++ {
		out[i] = r.Str()
	}
	return out
}
