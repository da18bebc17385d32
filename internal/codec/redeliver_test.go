package codec

import (
	"bytes"
	"testing"
)

// differencing returns the three differencing codecs at their defaults.
func differencing(t *testing.T) []Codec {
	t.Helper()
	bm, err := NewBitmap(DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRsync(DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	return []Codec{bm, rs, vb}
}

// TestDifferencingDecodeReturnsOld: a payload that rebuilds the old
// version, or a prefix of it, decodes to old itself, capacity clipped,
// without an output of its own; one that differs only in its last byte
// decodes to a new output and leaves old as it was.
func TestDifferencingDecodeReturnsOld(t *testing.T) {
	page, _ := versionedPair(t, 31)
	old := append(make([]byte, 0, len(page)+64), page...) // spare capacity a clipped result must not reach
	// Allocations a stateless decode of a rebuilding payload still makes:
	// the vary-block chunk list.
	split := map[string]float64{NameBitmap: 0, NameRsync: 0, NameVaryBlock: 1}
	for _, c := range differencing(t) {
		for _, n := range []int{len(old), len(old) - 100, 3000} {
			payload, err := c.Encode(old, old[:n])
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Decode(old, payload)
			if err != nil || len(got) != n || cap(got) != n || &got[0] != &old[0] {
				t.Fatalf("%s: a payload rebuilding old[:%d] decoded to %d bytes (cap %d), not old itself: %v", c.Name(), n, len(got), cap(got), err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := c.Decode(old, payload); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != split[c.Name()] {
				t.Fatalf("%s: rebuilding old[:%d] allocates %v, want %v", c.Name(), n, allocs, split[c.Name()])
			}
		}
		cur := bytes.Clone(old)
		cur[len(cur)-1] ^= 0xff
		payload, err := c.Encode(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(old, payload)
		if err != nil || !bytes.Equal(got, cur) || &got[0] == &old[0] {
			t.Fatalf("%s: a payload diverging at the last byte decoded wrong or onto old: %v", c.Name(), err)
		}
		if !bytes.Equal(old, page) {
			t.Fatalf("%s: decoding wrote the old version", c.Name())
		}
	}
}

// TestGzipDecodeHeldReturnsHeldVersion: a Held made by Inflated records
// its stream, and a decode against it of a byte-equal stream — a copy, as
// a reply frame's own body is — returns its version itself and allocates
// nothing. Any other payload is inflated, with Decode's bytes or refusal.
func TestGzipDecodeHeldReturnsHeldVersion(t *testing.T) {
	g := NewGzip()
	page, other := versionedPair(t, 37)
	stream, err := g.Encode(nil, page)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.DecodeHeld(nil, stream)
	if err != nil || !bytes.Equal(got, page) {
		t.Fatalf("a cold decode: %v", err)
	}
	h := Inflated(got, stream)
	if h.Size() != cap(h.Data)+cap(stream) {
		t.Fatalf("the Held keeps %d bytes, want its version and one stream, %d", h.Size(), cap(h.Data)+cap(stream))
	}
	again := bytes.Clone(stream)
	got, err = g.DecodeHeld(h, again)
	if err != nil || !h.Holds(got) || cap(got) != len(got) {
		t.Fatalf("a re-delivered stream was not answered with the held version: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := g.DecodeHeld(h, again); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a re-delivered stream allocates %v, want 0", allocs)
	}
	otherStream, err := g.Encode(nil, other)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(stream)
	flipped[len(flipped)/2] ^= 0x40
	for name, payload := range map[string][]byte{
		"another page":      otherStream,
		"one byte flipped":  flipped,
		"truncated":         stream[:len(stream)-1],
		"a trailing byte":   append(bytes.Clone(stream), 0),
		"empty":             {},
		"nil":               nil,
		"the version plain": page,
	} {
		want, werr := g.Decode(nil, payload)
		got, err := g.DecodeHeld(h, payload)
		sameVerdict(t, name, want, werr, got, err)
		if err == nil && h.Holds(got) {
			t.Fatalf("%s: answered with the held version", name)
		}
	}
}
