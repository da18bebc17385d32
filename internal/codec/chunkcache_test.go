package codec

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"sync"
	"testing"
)

// corpusPairs builds a deterministic set of (old, cur) version pairs.
func corpusPairs(t testing.TB, n int) [][2][]byte {
	t.Helper()
	pairs := make([][2][]byte, 0, n)
	for i := 0; i < n; i++ {
		old, cur := versionedPair(t, int64(100+i))
		pairs = append(pairs, [2][]byte{old, cur})
	}
	return pairs
}

// bitmapDigestOracle builds the Bitmap payload the protocol's digest
// exchange defines: block i of cur is a literal unless old has a block at
// the same position of equal length and equal SHA-1. That is the decision a
// server makes from the client's uploaded digests alone; Bitmap.Encode,
// which holds both versions, compares bytes instead and must emit the same
// payload byte for byte.
func bitmapDigestOracle(bs int, old, cur []byte) []byte {
	block := func(data []byte, i int) ([]byte, bool) {
		start := i * bs
		if start >= len(data) {
			return nil, false
		}
		return data[start:min(start+bs, len(data))], true
	}
	nblocks := (len(cur) + bs - 1) / bs
	bitmap := make([]byte, (nblocks+7)/8)
	var lits []byte
	for i := 0; i < nblocks; i++ {
		c, _ := block(cur, i)
		if o, ok := block(old, i); ok && len(o) == len(c) && sha1.Sum(o) == sha1.Sum(c) {
			continue
		}
		bitmap[i/8] |= 1 << (i % 8)
		lits = append(lits, c...)
	}
	out := appendUvarints(append([]byte(nil), bitmapMagic...), uint64(bs), uint64(len(cur)), uint64(len(old)))
	return append(append(out, bitmap...), lits...)
}

// TestCachedEncodeMatchesUncached locks in the engine's core contract:
// attaching a ChunkCache to VaryBlock changes the work profile, never the
// bytes. Bitmap has no cache to attach; its one encode path is held to the
// digest-comparison oracle instead.
func TestCachedEncodeMatchesUncached(t *testing.T) {
	pairs := corpusPairs(t, 4)
	cache := NewChunkCache(0)

	plainVary, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	cachedVary, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	cachedVary.UseChunkCache(cache)

	for round := 0; round < 2; round++ { // round 1 = cold cache, round 2 = warm
		for pi, pr := range pairs {
			for _, ab := range [][2][]byte{{pr[0], pr[1]}, {nil, pr[1]}, {pr[1], pr[1]}} {
				want, err := plainVary.Encode(ab[0], ab[1])
				if err != nil {
					t.Fatal(err)
				}
				got, err := cachedVary.Encode(ab[0], ab[1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("varyblock pair %d round %d: cached payload differs from stateless payload", pi, round)
				}
				dec, err := cachedVary.Decode(ab[0], got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dec, ab[1]) {
					t.Fatalf("varyblock pair %d round %d: cached decode mismatch", pi, round)
				}
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("cache never hit across warm rounds: %+v", st)
	}

	for _, bs := range []int{64, DefaultBlockSize} {
		bm, err := NewBitmap(bs)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := Codec(bm).(ChunkCacheUser); ok {
			t.Fatal("Bitmap implements ChunkCacheUser; it has one stateless encode path")
		}
		for pi, pr := range pairs {
			old, cur := pr[0], pr[1]
			partial := bs/2 + 1
			cases := []struct {
				name     string
				old, cur []byte
			}{
				{"cold", nil, cur},
				{"diff", old, cur},
				{"current (same slice)", cur, cur},
				{"current (copy)", append([]byte(nil), cur...), cur},
				// The last block pair matches byte for byte up to the shorter
				// side's end and differs in length only, in either direction;
				// the longer side also gains or loses whole blocks.
				{"cur shorter by a partial block", cur, cur[:len(cur)-partial]},
				{"cur longer by a partial block", cur[:len(cur)-partial], cur},
				{"cur shorter by blocks and a part", cur, cur[:len(cur)-2*bs-partial]},
				{"cur longer by blocks and a part", cur[:len(cur)-2*bs-partial], cur},
				{"empty cur", old, nil},
			}
			for _, c := range cases {
				got, err := bm.Encode(c.old, c.cur)
				if err != nil {
					t.Fatal(err)
				}
				if want := bitmapDigestOracle(bs, c.old, c.cur); !bytes.Equal(got, want) {
					t.Fatalf("bitmap/%d pair %d %s: payload differs from the digest-comparison oracle", bs, pi, c.name)
				}
				dec, err := bm.Decode(c.old, got)
				if err != nil {
					t.Fatalf("bitmap/%d pair %d %s: %v", bs, pi, c.name, err)
				}
				if !bytes.Equal(dec, c.cur) {
					t.Fatalf("bitmap/%d pair %d %s: decode mismatch", bs, pi, c.name)
				}
			}
		}
	}
}

// TestDecodeIgnoresChunkCache pins the one decode path: a VaryBlock with a
// ChunkCache attached decodes byte-identically to a stateless one — for a
// cold start, a differing held version and an already-current one — and
// rejects the same hostile payloads, without a single cache lookup.
func TestDecodeIgnoresChunkCache(t *testing.T) {
	plain, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache(0)
	cached.UseChunkCache(cache)

	type decodeCase struct {
		name         string
		old, payload []byte
	}
	var good, hostile []decodeCase
	for pi, pr := range corpusPairs(t, 4) {
		for _, ab := range []struct {
			name     string
			old, cur []byte
		}{{"cold", nil, pr[1]}, {"diff", pr[0], pr[1]}, {"current", pr[1], pr[1]}} {
			payload, err := plain.Encode(ab.old, ab.cur)
			if err != nil {
				t.Fatal(err)
			}
			good = append(good, decodeCase{fmt.Sprintf("pair %d %s", pi, ab.name), ab.old, payload})
			hostile = append(hostile,
				decodeCase{fmt.Sprintf("pair %d %s truncated", pi, ab.name), ab.old, payload[:len(payload)/2]},
				decodeCase{fmt.Sprintf("pair %d %s trailing", pi, ab.name), ab.old, append(payload[:len(payload):len(payload)], 0)},
				decodeCase{fmt.Sprintf("pair %d %s wrong old", pi, ab.name), pr[0][:len(pr[0])-100], payload},
			)
		}
	}
	header := func(vs ...uint64) []byte { return appendUvarints(append([]byte(nil), varyMagic...), vs...) }
	held := good[1].old
	hostile = append(hostile,
		decodeCase{"garbage", held, []byte("not a payload at all")},
		decodeCase{"empty", held, nil},
		decodeCase{"4 GiB header, tiny literal", nil, append(header(1<<32, 0, 1), varyOpLit, 3, 'a', 'b', 'c')},
		decodeCase{"2 GiB header, no ops", nil, header(1<<31, 0, 1)},
		decodeCase{"ref past last chunk", held, append(header(1, uint64(len(held)), 1), varyOpRef, 0xff, 0xff, 0x03)},
		decodeCase{"unknown op tag", held, append(header(1, uint64(len(held)), 1), 7)},
	)

	before := cache.Stats()
	for _, c := range good {
		want, err := plain.Decode(c.old, c.payload)
		if err != nil {
			t.Fatalf("%s: stateless decode: %v", c.name, err)
		}
		got, err := cached.Decode(c.old, c.payload)
		if err != nil {
			t.Fatalf("%s: decode with cache attached: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: decode with cache attached differs from stateless decode", c.name)
		}
	}
	for _, c := range hostile {
		for _, vb := range []*VaryBlock{plain, cached} {
			if _, err := vb.Decode(c.old, c.payload); err == nil {
				t.Errorf("%s: hostile payload decoded without error (cache attached: %v)", c.name, vb.cache != nil)
			}
		}
	}
	if after := cache.Stats(); after != before {
		t.Fatalf("Decode touched the chunk cache: %+v -> %+v", before, after)
	}
}

// TestSharedCacheConcurrent hammers one shared VaryBlock + ChunkCache and
// one shared Bitmap from many goroutines (run under -race in CI) and asserts
// every concurrent output equals the serial output — the stateless
// VaryBlock's, and the digest-comparison oracle's for Bitmap.
func TestSharedCacheConcurrent(t *testing.T) {
	pairs := corpusPairs(t, 3)
	plain, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	type expect struct{ payload, bitmap, cur []byte }
	want := make([]expect, len(pairs))
	for i, pr := range pairs {
		p, err := plain.Encode(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = expect{payload: p, bitmap: bitmapDigestOracle(DefaultBlockSize, pr[0], pr[1]), cur: pr[1]}
	}

	// Tiny capacity forces concurrent eviction alongside concurrent hits.
	cache := NewChunkCache(4)
	shared, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	shared.UseChunkCache(cache)
	sharedBm, err := NewBitmap(DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pi := (g + i) % len(pairs)
				pr := pairs[pi]
				payload, err := shared.Encode(pr[0], pr[1])
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(payload, want[pi].payload) {
					errs <- fmt.Errorf("goroutine %d iter %d: concurrent payload differs from serial", g, i)
					return
				}
				got, err := shared.Decode(pr[0], payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want[pi].cur) {
					errs <- fmt.Errorf("goroutine %d iter %d: concurrent decode mismatch", g, i)
					return
				}
				bmPayload, err := sharedBm.Encode(pr[0], pr[1])
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(bmPayload, want[pi].bitmap) {
					errs <- fmt.Errorf("goroutine %d iter %d: concurrent bitmap payload differs from the oracle", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries > 4 {
		t.Fatalf("LRU exceeded its capacity: %+v", st)
	}
}

func TestChunkCacheLRUEviction(t *testing.T) {
	cache := NewChunkCache(2)
	vb, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	vb.UseChunkCache(cache)
	a, b := versionedPair(t, 200)
	c, _ := versionedPair(t, 201)
	for _, data := range [][]byte{a, b, c} {
		if _, err := vb.Encode(nil, data); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (capacity)", st.Entries)
	}
	if st.Misses != 3 {
		t.Fatalf("misses = %d, want 3", st.Misses)
	}
	// `a` was evicted (least recently used); touching it again must miss,
	// while `c` (most recent) must hit.
	if _, err := vb.Encode(nil, c); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats(); got.Hits != st.Hits+1 {
		t.Fatalf("expected a hit on the most recent entry: %+v", got)
	}
	if _, err := vb.Encode(nil, a); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats(); got.Misses != st.Misses+1 {
		t.Fatalf("expected a miss on the evicted entry: %+v", got)
	}
}

func TestVaryDecodeCapsHostileHeaderReservation(t *testing.T) {
	vb, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build a payload whose header claims 4 GiB of content but whose
	// body is a single tiny literal: decode must fail on the length check,
	// not OOM on the up-front reservation.
	payload := append([]byte(nil), varyMagic...)
	payload = append(payload, 0x80, 0x80, 0x80, 0x80, 0x10) // curLen = 1<<32
	payload = append(payload, 0)                            // oldLen = 0
	payload = append(payload, 1)                            // nops = 1
	payload = append(payload, varyOpLit, 3, 'a', 'b', 'c')
	if _, err := vb.Decode(nil, payload); err == nil {
		t.Fatal("hostile 4GiB header decoded without error")
	}
}
