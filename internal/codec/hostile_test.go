package codec

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// These tests pin the hostile-header allocation behaviour the wiretaint
// analyzer enforces statically: a payload whose header claims gigabytes
// of content but delivers nothing must fail fast without the decoder
// reserving anything close to the claimed size. The bounds are loose
// (megabytes of headroom over the ~1 MB clamp) so runtime allocation
// noise cannot flake them — the regression they catch is the original
// make([]byte, 0, curLen) which allocated 2-4 GB up front.

// allocDelta reports bytes allocated while running f on a quiesced heap.
func allocDelta(t *testing.T, f func()) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// appendUvarints appends each value in uvarint encoding.
func appendUvarints(dst []byte, vs ...uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vs {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	return dst
}

func TestRsyncHostileLengthNoHugeAllocation(t *testing.T) {
	r, err := NewRsync(64)
	if err != nil {
		t.Fatal(err)
	}
	// Header: block size 64, 2 GB of claimed content, empty old version,
	// one op — then the stream ends.
	payload := appendUvarints(append([]byte(nil), rsyncMagic...), 64, 1<<31, 0, 1)
	delta := allocDelta(t, func() {
		if _, err := r.Decode(nil, payload); err == nil {
			t.Error("truncated 2 GB-claiming payload decoded without error")
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Errorf("unexpected decode error: %v", err)
		}
	})
	if delta > 16<<20 {
		t.Fatalf("decoding a truncated 2 GB-claiming rsync payload allocated %d bytes", delta)
	}
}

func TestBitmapHostileLengthNoHugeAllocation(t *testing.T) {
	b, err := NewBitmap(16)
	if err != nil {
		t.Fatal(err)
	}
	// Header: block size 16 and 4 GB of claimed content, which implies a
	// 32 MB bitmap — none of which arrives.
	payload := appendUvarints(append([]byte(nil), bitmapMagic...), 16, 1<<32, 0)
	delta := allocDelta(t, func() {
		if _, err := b.Decode(nil, payload); err == nil {
			t.Error("truncated 4 GB-claiming payload decoded without error")
		} else if !strings.Contains(err.Error(), "truncated bitmap") {
			t.Errorf("unexpected decode error: %v", err)
		}
	})
	if delta > 8<<20 {
		t.Fatalf("decoding a truncated 4 GB-claiming bitmap payload allocated %d bytes", delta)
	}
}

func TestVaryBlockHostileLengthNoHugeAllocation(t *testing.T) {
	v, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	// Header: 2 GB of claimed content, empty old version, one op — then
	// the stream ends.
	payload := appendUvarints(append([]byte(nil), varyMagic...), 1<<31, 0, 1)
	delta := allocDelta(t, func() {
		if _, err := v.Decode(nil, payload); err == nil {
			t.Error("truncated 2 GB-claiming payload decoded without error")
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Errorf("unexpected decode error: %v", err)
		}
	})
	if delta > 16<<20 {
		t.Fatalf("decoding a truncated 2 GB-claiming varyblock payload allocated %d bytes", delta)
	}
}

// The gzip decoder sizes its output from the trailer's ISIZE field, which
// is as unvalidated as any header length above.
func TestGzipHostileTrailerNoHugeAllocation(t *testing.T) {
	g := NewGzip()
	payload, err := g.Encode(nil, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(payload[len(payload)-4:], 1<<32-1)
	delta := allocDelta(t, func() {
		if _, err := g.Decode(nil, payload); err == nil {
			t.Error("payload with a forged 4 GiB ISIZE decoded without error")
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Errorf("unexpected decode error: %v", err)
		}
	})
	if delta > 8<<20 {
		t.Fatalf("decoding a 4 GiB-claiming gzip payload allocated %d bytes", delta)
	}
}

// A trailer can be wrong without being forged: in a multi-member stream it
// describes the last member only. The hint may then be zero, too small or
// merely short of the total, and the output must not depend on it.
func TestGzipDecodeIgnoresMisleadingTrailer(t *testing.T) {
	g := NewGzip()
	_, page := versionedPair(t, 19)
	member := func(content []byte) []byte {
		p, err := g.Encode(nil, content)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	concat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, c := range []struct {
		name    string
		payload []byte
		want    []byte
	}{
		{"trailer claims 0", concat(member(page), member(nil)), page},
		{"trailer too small", concat(member(page), member([]byte("tail"))), concat(page, []byte("tail"))},
		{"trailer short of total", concat(member([]byte("head")), member(page)), concat([]byte("head"), page)},
		{"single member", member(page), page},
		{"empty content", member(nil), nil},
	} {
		got, err := g.Decode(nil, c.payload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: decoded %d bytes, want the %d-byte original", c.name, len(got), len(c.want))
		}
	}
}
