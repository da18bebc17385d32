package inp

import (
	"encoding/binary"
	"fmt"
	"time"

	"fractal/internal/core"
	"fractal/internal/wire"
)

// The INP body codec: the one binary encoding of package wire for every
// message type, pinned byte for byte by golden frames (TestGoldenV2Frames).
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
// caller's stack across the interface call, and ends with r.Done().
type wireDecoder interface {
	wireBody
	decodeWire(r wire.Reader) error
}

// DecodeRaw decodes a raw body returned by Recv into v, the pointer to the
// header type's struct; trailing bytes are rejected. The caller keeps raw:
// v holds no reference to it.
func DecodeRaw(h Header, raw []byte, v interface{}) error {
	return decodeRaw(h, raw, v, false)
}

// decodeRaw is DecodeRaw; owned says v may keep slices of raw (see
// wire.Reader.Blob).
func decodeRaw(h Header, raw []byte, v interface{}, owned bool) error {
	d, ok := v.(wireDecoder)
	if !ok || d.wireType() != h.Type {
		return fmt.Errorf("inp: no codec decodes a %v body into %T", h.Type, v)
	}
	if err := d.decodeWire(wire.NewReader(raw, owned)); err != nil {
		return fmt.Errorf("inp: decoding %v body: %w", h.Type, err)
	}
	return nil
}

// --- core metadata, shared by several messages ---

func (e *encodeState) appendDevMeta(d *core.DevMeta) {
	e.appendString(d.OSType)
	e.appendString(d.CPUType)
	e.appendFloat(d.CPUMHz)
	e.appendInt(d.MemMB)
}

func readDevMeta(r *wire.Reader, d *core.DevMeta) {
	d.OSType = r.Str()
	d.CPUType = r.Str()
	d.CPUMHz = r.Float()
	d.MemMB = r.Int()
}

func (e *encodeState) appendNtwkMeta(n *core.NtwkMeta) {
	e.appendString(n.NetworkType)
	e.appendFloat(n.BandwidthKbps)
}

func readNtwkMeta(r *wire.Reader, n *core.NtwkMeta) {
	n.NetworkType = r.Str()
	n.BandwidthKbps = r.Float()
}

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

func readPADMeta(r *wire.Reader, p *core.PADMeta) {
	p.ID = r.Str()
	p.Version = r.Str()
	p.Protocol = r.Str()
	p.Size = r.Varint()
	p.Overhead.ServerCompStd = time.Duration(r.Varint())
	p.Overhead.ClientCompStd = time.Duration(r.Varint())
	p.Overhead.TrafficBytes = r.Varint()
	p.Overhead.UpstreamBytes = r.Varint()
	copy(p.Digest[:], r.Take(uint64(len(p.Digest))))
	p.URL = r.Str()
	p.Parent = r.Str()
	p.Children = r.Strs()
	p.Alias = r.Str()
}

// appendPADMetas encodes a PAD metadata array behind a count prefix: the
// body of PAD_META_REP and the PAD half of APP_META_PUSH.
func (e *encodeState) appendPADMetas(ps []core.PADMeta) {
	e.appendCount(len(ps), ps == nil)
	for i := range ps {
		e.appendPADMeta(&ps[i])
	}
}

func readPADMetas(r *wire.Reader) []core.PADMeta {
	n, ok := r.Count()
	if !ok {
		return nil
	}
	out := make([]core.PADMeta, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		readPADMeta(r, &out[i])
	}
	return out
}

// --- encode primitives: wire's appenders, run in place over the assembly
// buffer's spare capacity ---

// room is spare assembly capacity for a field of n bytes behind a varint.
func (e *encodeState) room(n int) []byte {
	return e.buf.AvailableBuffer(binary.MaxVarintLen64 + n)
}

func (e *encodeState) appendInt64(v int64) { e.buf.Write(wire.AppendVarint(e.room(0), v)) }

func (e *encodeState) appendInt(v int) { e.appendInt64(int64(v)) }

func (e *encodeState) appendBool(v bool) { e.buf.Write(wire.AppendBool(e.room(0), v)) }

func (e *encodeState) appendFloat(f float64) { e.buf.Write(wire.AppendFloat(e.room(0), f)) }

func (e *encodeState) appendString(s string) { e.buf.Write(wire.AppendString(e.room(len(s)), s)) }

// appendCount writes the presence-aware prefix of a slice field.
func (e *encodeState) appendCount(n int, isNil bool) {
	e.buf.Write(wire.AppendCount(e.room(0), n, isNil))
}

// appendBlob encodes b behind a count prefix. Large payloads splice as
// their own writev vector instead of being copied; they must stay
// unmodified until Flush.
func (e *encodeState) appendBlob(b []byte) {
	e.appendCount(len(b), b == nil)
	if len(b) >= spliceMin {
		e.splice(b)
		return
	}
	e.buf.Write(b)
}

func (e *encodeState) appendStrings(ss []string) {
	e.appendCount(len(ss), ss == nil)
	for _, s := range ss {
		e.appendString(s)
	}
}
