package codec

import (
	"bytes"
	"slices"
	"sync/atomic"
	"unsafe"

	"fractal/internal/arena"
	"fractal/internal/rabin"
)

// Held is a version the receiver holds, with what decoding derives from it
// kept on it, so that it lives and dies with the version:
//
//   - the chunk boundaries the first VaryBlock.DecodeHeld against it
//     splits, never derived from a payload;
//   - when Inflated made it, the stream it was inflated from, so a
//     Gzip.DecodeHeld of that stream returns Data without inflating again.
//
// Neither Data nor the stream may be modified once held, nor lie in
// storage its decode read from and the caller reuses (see Detach).
// Concurrent decodes may each split; all reuse the first split stored.
type Held struct {
	Data   []byte
	split  atomic.Pointer[heldSplit]
	stream []byte // set before the Held is shared, never after
}

// Inflated holds data, which Gzip.Decode inflated from stream, and records
// stream: a later Gzip.DecodeHeld of a byte-equal stream against it
// returns data itself. stream is kept, not copied.
func Inflated(data, stream []byte) *Held {
	return &Held{Data: data, stream: stream}
}

// Detach replaces each of h's slices that starts in buf — the storage its
// decode read the payload from, which the caller reuses — with a copy of
// exactly its bytes, so that h outlives buf. h must not be shared yet.
func (h *Held) Detach(buf *arena.Buffer) {
	if buf.Holds(h.Data) {
		h.Data = slices.Clip(bytes.Clone(h.Data))
	}
	if buf.Holds(h.stream) {
		h.stream = slices.Clip(bytes.Clone(h.stream))
	}
}

// heldSplit is Data's split under one chunker configuration.
type heldSplit struct {
	cfg    rabin.ChunkerConfig
	chunks []rabin.Chunk
}

// Holds reports whether b is h's version itself (the same first element
// and length), not equal bytes elsewhere. A nil Held holds nothing.
func (h *Held) Holds(b []byte) bool {
	return h != nil && len(b) == len(h.Data) && (len(b) == 0 || &b[0] == &h.Data[0])
}

// Size is the number of bytes h's slices reach: Data, the stream it was
// inflated from and its split's chunk list. Nothing else a decode derives
// stays on a Held.
func (h *Held) Size() int {
	n := cap(h.Data) + cap(h.stream)
	if s := h.split.Load(); s != nil {
		n += cap(s.chunks) * int(unsafe.Sizeof(rabin.Chunk{}))
	}
	return n
}

// chunks returns old split by ch, where h is nil or holds old: h's split
// when it was made under ch's configuration, else a fresh one, which is
// stored if h holds none yet.
func (h *Held) chunks(ch *rabin.Chunker, old []byte) []rabin.Chunk {
	if h == nil {
		return ch.Split(old)
	}
	s := h.split.Load()
	if s == nil {
		h.split.CompareAndSwap(nil, &heldSplit{ch.Config(), ch.Split(old)})
		s = h.split.Load() // ours, or that of a concurrent decode that stored first
	}
	if s.cfg != ch.Config() {
		return ch.Split(old)
	}
	return s.chunks
}
