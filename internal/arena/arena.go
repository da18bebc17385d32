// Package arena is the unified buffer arena of the serving path: one
// size-classed recycling layer under every hot byte buffer — INP frame
// assembly, codec op buffers, per-connection read buffers, message body
// scratch, and the reply body of a client request — replacing the
// per-package sync.Pools that used to each retain their own storage.
//
// Its one storage type is Buffer: an append-style builder whose backing
// storage comes from the class pools and is recycled on Release (or when
// growth promotes it to a larger class). Encoders hold one per writer; a
// client request holds one for its reply, and Holds tells it which of the
// slices it keeps must be copied out before Release. A Session is a
// served connection's pair of Buffers — its read window and its body
// buffer — acquired when the connection is accepted and released, both at
// once, when it closes.
//
// Beside the byte classes, the arena pools gzip compressors (a GzipWriter
// pool per compression level), the one other serving-path object large
// enough to dominate a call's allocation and reusable after a reset.
//
// Buffers above the largest class fall through to the allocator: a giant
// PAD module must not pin a megabyte in a pool forever. All pools are
// package-global and safe for concurrent use; an individual Buffer or
// Session is single-goroutine, like the connection it serves.
//
// A session's buffers are recycled at Release, so one stored where it
// outlives its session would be overwritten under the holder. Only inp's
// connection takes them, in NewConnSession, and the Conn and its session
// share a lifetime; a structural test in internal/analysis
// (TestSessionBorrowsOnlyInConn) keeps every other caller out.
package arena

import (
	"sync"
	"unsafe"
)

// classSizes are the buffer capacities the arena recycles, tuned to the
// serving path: 512 B covers negotiation frames and op headers, 4 KB the
// connection read buffer and typical bodies, 64 KB a large PAD_META_REP or
// codec op stream, 1 MB the decode-reserve cap used by hostile-header
// handling across inp and codec.
var classSizes = [...]int{512, 4 << 10, 64 << 10, 1 << 20}

// box carries a pooled backing array. Pools hold *box so neither Get nor
// Put boxes a slice header per call; the box travels with its buffer.
type box struct {
	b []byte
}

var classPools [len(classSizes)]sync.Pool

func init() {
	for i := range classPools {
		size := classSizes[i]
		classPools[i] = sync.Pool{New: func() interface{} { return &box{b: make([]byte, 0, size)} }}
	}
}

// classFor returns the index of the smallest class with capacity >= n, or
// -1 when n exceeds the largest class.
func classFor(n int) int {
	for i, size := range classSizes {
		if n <= size {
			return i
		}
	}
	return -1
}

// getBox borrows a box with capacity >= n. Oversized requests get a fresh
// allocator-backed box that putBox will drop rather than pool.
func getBox(n int) *box {
	ci := classFor(n)
	if ci < 0 {
		return &box{b: make([]byte, 0, n)}
	}
	bx := classPools[ci].Get().(*box)
	bx.b = bx.b[:0]
	return bx
}

// putBox recycles a box into the pool of the largest class its capacity
// still satisfies; capacities that match no class are dropped.
func putBox(bx *box) {
	c := cap(bx.b)
	for i := len(classSizes) - 1; i >= 0; i-- {
		if c >= classSizes[i] {
			if c > classSizes[len(classSizes)-1] {
				return // oversized: let the allocator reclaim it
			}
			bx.b = bx.b[:0]
			classPools[i].Put(bx)
			return
		}
	}
}

// Buffer is an append-style byte builder over arena storage. The zero
// value is ready to use; Write/WriteByte grow it through the size classes,
// and Release returns the backing storage to the arena. It implements
// io.Writer and never returns an error.
type Buffer struct {
	bx *box
}

// ensure arranges capacity for n more bytes, promoting to a larger class
// (copying the contents) when the current backing is full.
func (w *Buffer) ensure(n int) {
	if w.bx == nil {
		w.bx = getBox(n)
		return
	}
	b := w.bx.b
	if cap(b)-len(b) >= n {
		return
	}
	grown := getBox(len(b) + n)
	grown.b = append(grown.b, b...)
	putBox(w.bx)
	w.bx = grown
}

// Write implements io.Writer.
func (w *Buffer) Write(p []byte) (int, error) {
	w.ensure(len(p))
	w.bx.b = append(w.bx.b, p...)
	return len(p), nil
}

// WriteString appends s without an intermediate []byte conversion.
func (w *Buffer) WriteString(s string) (int, error) {
	w.ensure(len(s))
	w.bx.b = append(w.bx.b, s...)
	return len(s), nil
}

// WriteByte appends one byte.
func (w *Buffer) WriteByte(c byte) error {
	w.ensure(1)
	w.bx.b = append(w.bx.b, c)
	return nil
}

// AvailableBuffer returns an empty slice with room for n bytes after the
// accumulated ones, for an append-style encoder to fill and hand back to
// Write (the bytes.Buffer idiom), which then copies it in place.
func (w *Buffer) AvailableBuffer(n int) []byte {
	w.ensure(n)
	return w.bx.b[len(w.bx.b):]
}

// Extend lengthens the accumulated bytes by n and returns them all, the n
// new bytes last with unspecified contents, for a reader to fill in place.
// The slice is valid until the next Write, Extend or Release.
func (w *Buffer) Extend(n int) []byte {
	w.ensure(n)
	w.bx.b = w.bx.b[:len(w.bx.b)+n]
	return w.bx.b
}

// Holds reports whether p starts in w's storage, which the next promotion
// or Release hands back to the arena: a caller keeping p past that copies
// it out first. An empty p holds no bytes, so it is never reported.
func (w *Buffer) Holds(p []byte) bool {
	if w.bx == nil || len(p) == 0 {
		return false
	}
	b := w.bx.b[:cap(w.bx.b)]
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return at >= start && at-start < uintptr(len(b))
}

// Bytes returns the accumulated bytes. The slice is valid until the next
// Write, Extend, or Release.
func (w *Buffer) Bytes() []byte {
	if w.bx == nil {
		return nil
	}
	return w.bx.b
}

// SetBytes replaces the accumulated bytes with b, which must be a slice of
// the buffer's own storage (a truncation or tail cut of Bytes()).
func (w *Buffer) SetBytes(b []byte) {
	if w.bx != nil {
		w.bx.b = b
	}
}

// Len reports the accumulated byte count.
func (w *Buffer) Len() int {
	if w.bx == nil {
		return 0
	}
	return len(w.bx.b)
}

// Release returns the backing storage to the arena. The Buffer remains
// usable; the next Write borrows fresh storage.
func (w *Buffer) Release() {
	if w.bx != nil {
		putBox(w.bx)
		w.bx = nil
	}
}

// Session is a connection's storage scope: two Buffers, its read window
// and its body buffer, both returned to the arena in one Release when the
// connection closes. A Session serves one connection and is not safe for
// concurrent use.
type Session struct {
	read, body Buffer
}

var sessionPool = sync.Pool{New: func() interface{} { return new(Session) }}

// AcquireSession borrows a session scope from the arena. Pair it with
// Release, typically at connection accept/close.
func AcquireSession() *Session {
	return sessionPool.Get().(*Session)
}

// Buffers returns the session's read window and body buffer, whose
// storage is valid until Release.
func (s *Session) Buffers() (read, body *Buffer) {
	return &s.read, &s.body
}

// Release returns both buffers' storage to the arena and recycles the
// session itself. All slices obtained from the session are invalid
// afterwards.
func (s *Session) Release() {
	s.read.Release()
	s.body.Release()
	sessionPool.Put(s)
}
