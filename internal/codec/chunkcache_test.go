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

// TestCachedEncodeMatchesUncached locks in the engine's core contract:
// attaching a ChunkCache changes the work profile, never the bytes.
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

	plainBm, err := NewBitmap(DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	cachedBm, err := NewBitmap(DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	cachedBm.UseChunkCache(cache)

	type pairCodec struct {
		name          string
		plain, cached Codec
	}
	cases := []pairCodec{
		{"varyblock", plainVary, cachedVary},
		{"bitmap", plainBm, cachedBm},
	}
	for _, pc := range cases {
		for round := 0; round < 2; round++ { // round 1 = cold cache, round 2 = warm
			for pi, pr := range pairs {
				for _, ab := range [][2][]byte{{pr[0], pr[1]}, {nil, pr[1]}, {pr[1], pr[1]}} {
					want, err := pc.plain.Encode(ab[0], ab[1])
					if err != nil {
						t.Fatal(err)
					}
					got, err := pc.cached.Encode(ab[0], ab[1])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s pair %d round %d: cached payload differs from stateless payload", pc.name, pi, round)
					}
					dec, err := pc.cached.Decode(ab[0], got)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(dec, ab[1]) {
						t.Fatalf("%s pair %d round %d: cached decode mismatch", pc.name, pi, round)
					}
				}
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("cache never hit across warm rounds: %+v", st)
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

// TestSharedCacheConcurrent hammers one shared VaryBlock + ChunkCache from
// many goroutines (run under -race in CI) and asserts every concurrent
// output equals the serial stateless output.
func TestSharedCacheConcurrent(t *testing.T) {
	pairs := corpusPairs(t, 3)
	plain, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	type expect struct{ payload, cur []byte }
	want := make([]expect, len(pairs))
	for i, pr := range pairs {
		p, err := plain.Encode(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = expect{payload: p, cur: pr[1]}
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
	sharedBm.UseChunkCache(cache)

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
				if _, err := sharedBm.Encode(pr[0], pr[1]); err != nil {
					errs <- err
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

// TestParallelDigestsMatchSerial pins the determinism of the digest pool:
// indexed results mean chunk order, not scheduling order, decides output.
func TestParallelDigestsMatchSerial(t *testing.T) {
	_, cur := versionedPair(t, 300)
	// Replicate the page well past parallelDigestThreshold.
	big := bytes.Repeat(cur, 1+(2*parallelDigestThreshold)/len(cur))

	bm, err := NewBitmap(DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	par := bm.BlockDigests(big)
	var serial [][sha1.Size]byte
	for start := 0; start < len(big); start += DefaultBlockSize {
		end := start + DefaultBlockSize
		if end > len(big) {
			end = len(big)
		}
		serial = append(serial, sha1.Sum(big[start:end]))
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel produced %d digests, serial %d", len(par), len(serial))
	}
	for i := range serial {
		if par[i] != serial[i] {
			t.Fatalf("digest %d differs between parallel and serial paths", i)
		}
	}

	vb, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	chunks := vb.chunker.Split(big)
	sums := sha1Chunks(big, chunks)
	for i, c := range chunks {
		if want := sha1.Sum(big[c.Offset : c.Offset+c.Length]); sums[i] != want {
			t.Fatalf("chunk digest %d differs between pool and direct computation", i)
		}
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
