package inp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"fractal/internal/core"
)

// The INP body codec: one hand-rolled binary encoding for every message
// type, pinned byte for byte by golden frames (TestGoldenV2Frames).
//
// Wire format: strings are uvarint length + bytes; byte slices, string
// slices, and meta arrays use a presence-aware prefix (0 = nil, n+1 = n
// elements) so nil and empty survive the round trip; ints are signed
// varints; float64s are 8 fixed big-endian IEEE-754 bytes; digests are
// raw fixed-width bytes.
//
// Each message describes its codec once, next to its struct in inp.go:
// the fields in wire order through the append primitives, and again
// through the reader. The description is code rather than a reflected
// field table because the serving path's allocation budget has no room
// for boxing each field (see DESIGN.md).

// spliceMin is the smallest []byte field worth splicing as its own writev
// vector instead of copying into the assembly buffer.
const spliceMin = 4 << 10

// wireBody is the encode half of a message's codec description. The
// methods have value receivers, so a body queued by value or by pointer
// encodes alike.
type wireBody interface {
	wireType() MsgType
	appendWire(e *encodeState)
}

// wireDecoder is the full description, implemented by the pointer to each
// body struct. decodeWire takes the reader by value so it stays on the
// caller's stack across the interface call, and ends with r.done().
type wireDecoder interface {
	wireBody
	decodeWire(r wireReader) error
}

// DecodeRaw decodes a raw body returned by Recv into v, the pointer to the
// header type's struct; trailing bytes are rejected. The caller keeps raw:
// v holds no reference to it.
func DecodeRaw(h Header, raw []byte, v interface{}) error {
	return decodeRaw(h, raw, v, false)
}

// decodeRaw is DecodeRaw; owned says v may keep slices of raw (see blob).
func decodeRaw(h Header, raw []byte, v interface{}, owned bool) error {
	d, ok := v.(wireDecoder)
	if !ok || d.wireType() != h.Type {
		return fmt.Errorf("inp: no codec decodes a %v body into %T", h.Type, v)
	}
	if err := d.decodeWire(wireReader{b: raw, owned: owned}); err != nil {
		return fmt.Errorf("inp: decoding %v body: %w", h.Type, err)
	}
	return nil
}

// --- core metadata, shared by several messages ---

//fractal:hotpath device metadata rides every negotiation burst
func (e *encodeState) appendDevMeta(d *core.DevMeta) {
	e.appendString(d.OSType)
	e.appendString(d.CPUType)
	e.appendFloat(d.CPUMHz)
	e.appendInt(d.MemMB)
}

func (r *wireReader) devMeta(d *core.DevMeta) {
	d.OSType = r.str()
	d.CPUType = r.str()
	d.CPUMHz = r.float()
	d.MemMB = r.int_()
}

//fractal:hotpath network metadata rides every negotiation burst
func (e *encodeState) appendNtwkMeta(n *core.NtwkMeta) {
	e.appendString(n.NetworkType)
	e.appendFloat(n.BandwidthKbps)
}

func (r *wireReader) ntwkMeta(n *core.NtwkMeta) {
	n.NetworkType = r.str()
	n.BandwidthKbps = r.float()
}

//fractal:hotpath PAD metadata arrays ride every PAD_META_REP
func (e *encodeState) appendPADMeta(p *core.PADMeta) {
	e.appendString(p.ID)
	e.appendString(p.Version)
	e.appendString(p.Protocol)
	e.appendInt64(p.Size)
	e.appendInt64(int64(p.Overhead.ServerCompStd))
	e.appendInt64(int64(p.Overhead.ClientCompStd))
	e.appendInt64(p.Overhead.TrafficBytes)
	e.appendInt64(p.Overhead.UpstreamBytes)
	e.buf.Write(p.Digest[:])
	e.appendString(p.URL)
	e.appendString(p.Parent)
	e.appendStrings(p.Children)
	e.appendString(p.Alias)
}

func (r *wireReader) padMeta(p *core.PADMeta) {
	p.ID = r.str()
	p.Version = r.str()
	p.Protocol = r.str()
	p.Size = r.int64_()
	p.Overhead.ServerCompStd = time.Duration(r.int64_())
	p.Overhead.ClientCompStd = time.Duration(r.int64_())
	p.Overhead.TrafficBytes = r.int64_()
	p.Overhead.UpstreamBytes = r.int64_()
	copy(p.Digest[:], r.take(uint64(len(p.Digest))))
	p.URL = r.str()
	p.Parent = r.str()
	p.Children = r.strs()
	p.Alias = r.str()
}

// appendPADMetas encodes a PAD metadata array behind a count prefix: the
// body of PAD_META_REP and the PAD half of APP_META_PUSH.
func (e *encodeState) appendPADMetas(ps []core.PADMeta) {
	e.appendCount(len(ps), ps == nil)
	for i := range ps {
		e.appendPADMeta(&ps[i])
	}
}

func (r *wireReader) padMetas() []core.PADMeta {
	n, ok := r.count()
	if !ok {
		return nil
	}
	out := make([]core.PADMeta, n)
	for i := 0; i < n && r.err == nil; i++ {
		r.padMeta(&out[i])
	}
	return out
}

// --- encode primitives ---

//fractal:hotpath varint fields are appended here
func (e *encodeState) appendUvarint(x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	e.buf.Write(tmp[:n])
}

//fractal:hotpath signed fields, counters and durations are appended here
func (e *encodeState) appendInt64(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

func (e *encodeState) appendInt(v int) { e.appendInt64(int64(v)) }

//fractal:hotpath boolean fields are appended here
func (e *encodeState) appendBool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf.WriteByte(b)
}

// appendFloat encodes f as 8 fixed big-endian IEEE-754 bytes, so NaN and
// the infinities round-trip bit-exact.
//
//fractal:hotpath metadata rates are appended here
func (e *encodeState) appendFloat(f float64) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(f))
	e.buf.Write(tmp[:])
}

//fractal:hotpath string fields are appended here
func (e *encodeState) appendString(s string) {
	e.appendUvarint(uint64(len(s)))
	e.buf.WriteString(s)
}

// appendCount writes the presence-aware prefix of a slice field: 0 = nil,
// n+1 = n elements.
func (e *encodeState) appendCount(n int, isNil bool) {
	if isNil {
		e.appendUvarint(0)
		return
	}
	e.appendUvarint(uint64(n) + 1)
}

// appendBlob encodes b behind a count prefix. Large payloads splice as
// their own writev vector instead of being copied; they must stay
// unmodified until Flush.
//
//fractal:hotpath payload and module bodies are appended here
func (e *encodeState) appendBlob(b []byte) {
	e.appendCount(len(b), b == nil)
	if len(b) >= spliceMin {
		e.splice(b)
		return
	}
	e.buf.Write(b)
}

//fractal:hotpath protocol-id lists are appended here
func (e *encodeState) appendStrings(ss []string) {
	e.appendCount(len(ss), ss == nil)
	for _, s := range ss {
		e.appendString(s)
	}
}

// --- decode primitives ---

var errBinTruncated = errors.New("truncated field")

// wireReader decodes the binary wire format. Every wire-declared length is
// bound-checked against the bytes actually present before any allocation
// is sized from it, so a hostile length cannot inflate memory. The first
// failure sticks in err: later reads return zero values and consume
// nothing, so a codec description reads its fields straight through and
// checks once, in done.
type wireReader struct {
	b     []byte
	off   int
	err   error
	owned bool // the decoded message may keep slices of b
}

// done is the verdict of a finished decode: the first field error, or
// trailing bytes the description did not consume.
func (r *wireReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// take consumes the next n bytes, or fails if fewer remain.
func (r *wireReader) take(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.b)-r.off) {
		r.err = errBinTruncated
	}
	if r.err != nil {
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = errBinTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) int64_() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = errBinTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) int_() int { return int(r.int64_()) }

func (r *wireReader) bool_() bool {
	p := r.take(1)
	if len(p) == 1 && p[0] > 1 {
		r.err = fmt.Errorf("bad bool byte %d", p[0])
	}
	return len(p) == 1 && p[0] == 1
}

func (r *wireReader) float() float64 {
	if p := r.take(8); len(p) == 8 {
		return math.Float64frombits(binary.BigEndian.Uint64(p))
	}
	return 0
}

func (r *wireReader) str() string { return string(r.take(r.uvarint())) }

// count reads a presence-aware slice prefix. The element count is bounded
// by the bytes left — every element costs at least one — so callers may
// size an allocation from it.
func (r *wireReader) count() (n int, present bool) {
	v := r.uvarint()
	if v == 0 {
		return 0, false
	}
	if v--; v > uint64(len(r.b)-r.off) {
		r.err = errBinTruncated
		return 0, false
	}
	return int(v), true
}

func (r *wireReader) blob() []byte {
	n, ok := r.count()
	if !ok {
		return nil
	}
	p := r.take(uint64(n))
	// Aliased iff the Conn allocated the body for this frame: then nothing
	// else will ever write it, and clipping the capacity keeps an append
	// off the fields behind it. Everywhere else — a session Conn's reused
	// body buffer, a caller's slice handed to DecodeRaw — the bytes are
	// overwritten while decoded payloads outlive them, so they are copied.
	if r.owned {
		return p[:len(p):len(p)]
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

func (r *wireReader) strs() []string {
	n, ok := r.count()
	if !ok {
		return nil
	}
	out := make([]string, n)
	for i := 0; i < n && r.err == nil; i++ {
		out[i] = r.str()
	}
	return out
}
