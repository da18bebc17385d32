package codec

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// These tests pin the bound every peer-sent length gets before it sizes
// memory: a payload whose header claims gigabytes of content but delivers
// nothing must fail fast without the decoder reserving anything close to
// the claimed size. The bounds are loose (megabytes of headroom over the
// ~1 MB clamp) so runtime allocation noise cannot flake them — the
// regression they catch is the original make([]byte, 0, curLen) which
// allocated 2-4 GB up front. The counts are read through wire.Reader,
// which also refuses a varint written in more bytes than it needs.

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

// nonMinimal64 is 64 as a two-byte uvarint, one byte longer than needed.
var nonMinimal64 = []byte{0xC0, 0x00}

// payloadOf concatenates a payload's parts into fresh storage.
func payloadOf(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// refuses decodes payload against an empty old version and fails unless
// the decoder refuses it with an error containing want, allocating at most
// maxAlloc bytes on the way.
func refuses(t *testing.T, c Codec, name string, payload []byte, want string, maxAlloc uint64) {
	t.Helper()
	delta := allocDelta(t, func() {
		if _, err := c.Decode(nil, payload); err == nil {
			t.Errorf("%s %s: decoded without error", c.Name(), name)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s %s: error %q, want it to mention %q", c.Name(), name, err, want)
		}
	})
	if delta > maxAlloc {
		t.Errorf("%s %s: refusing it allocated %d bytes, want at most %d", c.Name(), name, delta, maxAlloc)
	}
}

func TestRsyncHostileLengthNoHugeAllocation(t *testing.T) {
	r, err := NewRsync(64)
	if err != nil {
		t.Fatal(err)
	}
	// Header: block size 64, 2 GB of claimed content, empty old version,
	// one op — then the stream ends.
	refuses(t, r, "2 GB claimed, no op", appendUvarints(payloadOf(rsyncMagic), 64, 1<<31, 0, 1), "truncated", 16<<20)
	refuses(t, r, "non-minimal block size", appendUvarints(payloadOf(rsyncMagic, nonMinimal64), 1<<31, 0, 1), "non-minimal", 16<<20)
}

func TestBitmapHostileLengthNoHugeAllocation(t *testing.T) {
	b, err := NewBitmap(16)
	if err != nil {
		t.Fatal(err)
	}
	// Block size 16 and 4 GB of claimed content, which implies a 32 MB
	// bitmap — none of which arrives.
	refuses(t, b, "4 GB claimed, no bitmap", appendUvarints(payloadOf(bitmapMagic), 16, 1<<32, 0), "truncated bitmap", 8<<20)
	// 1 MB blocks and 2 GB of claimed content: the 256-byte bitmap
	// arrives and marks every block a literal, but no literal follows.
	refuses(t, b, "2 GB claimed, no literal",
		payloadOf(appendUvarints(payloadOf(bitmapMagic), 1<<20, 1<<31, 0), bytes.Repeat([]byte{0xFF}, 256)), "truncated literal", 8<<20)
	refuses(t, b, "non-minimal block size", appendUvarints(payloadOf(bitmapMagic, nonMinimal64), 1<<32, 0), "non-minimal", 8<<20)
}

// varyHostile is the vary-block hostile table: each payload, decoded
// against an empty old version, must be refused with an error naming
// want. TestDecodeHeldMatchesDecode runs it through a Held too.
var varyHostile = []struct {
	name, want string
	payload    []byte
}{
	// Header: 2 GB of claimed content, empty old version, one op — then
	// the stream ends.
	{"2 GB claimed, no op", "truncated", appendUvarints(payloadOf(varyMagic), 1<<31, 0, 1)},
	{"non-minimal content length", "non-minimal", appendUvarints(payloadOf(varyMagic, nonMinimal64), 0, 1)},
}

func TestVaryBlockHostileLengthNoHugeAllocation(t *testing.T) {
	v, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range varyHostile {
		refuses(t, v, tc.name, tc.payload, tc.want, 16<<20)
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

// zeros is an endless source of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// A decompression bomb: a payload of about 70 KiB that inflates to 65 MiB,
// past the 64 MiB a payload may decode to. It must be refused, and the
// decoder must allocate no more than that bound and its first reserve.
func TestGzipDecompressionBombRefused(t *testing.T) {
	if raceEnabled {
		t.Skip("inflating 64 MiB under the race detector is slow and adds nothing")
	}
	var b bytes.Buffer
	w, err := gzip.NewWriterLevel(&b, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(w, zeros{}, 65<<20); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	payload := b.Bytes()
	if len(payload) > 80<<10 {
		t.Fatalf("bomb payload is %d bytes, want about 70 KiB", len(payload))
	}
	g := NewGzip()
	delta := allocDelta(t, func() {
		if _, err := g.Decode(nil, payload); !errors.Is(err, errInflateLimit) {
			t.Errorf("a payload inflating to 65 MiB: got %v, want the 64 MiB limit", err)
		}
	})
	if delta > maxInflate+4<<20 {
		t.Fatalf("refusing a 65 MiB bomb allocated %d bytes, want at most 64 MiB and the reserve", delta)
	}
}
