package codec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"fractal/internal/workload"
)

// protocolNames are the names New constructs, in the sorted order the
// sub-benchmarks of BenchmarkEncode and BenchmarkDecode run in.
var protocolNames = []string{NameBitmap, NameDirect, NameGzip, NameRsync, NameVaryBlock}

// allCodecs returns one instance of each case-study protocol.
func allCodecs(t testing.TB) []Costed {
	t.Helper()
	var out []Costed
	for _, name := range protocolNames {
		c, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		out = append(out, c)
	}
	return out
}

func TestRegistryHasCaseStudyProtocols(t *testing.T) {
	for i, c := range allCodecs(t) {
		if c.Name() != protocolNames[i] {
			t.Errorf("New(%q) built %q", protocolNames[i], c.Name())
		}
	}
	if _, err := New("morse-code"); err == nil {
		t.Fatal("unknown protocol constructed")
	}
}

// versionedPair builds an (old, new) content pair from the standard
// workload generator.
func versionedPair(t testing.TB, seed int64) (old, cur []byte) {
	t.Helper()
	c, err := workload.Generate(workload.Config{
		Pages: 1, TextBytes: 5 * 1024, Images: 4, ImageBytes: 32 * 1024, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := workload.Mutate(c.Pages[0], workload.DefaultMutation(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return c.Pages[0].Bytes(), v2.Bytes()
}

func TestRoundTripWithOldVersion(t *testing.T) {
	old, cur := versionedPair(t, 11)
	for _, c := range allCodecs(t) {
		payload, err := c.Encode(old, cur)
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.Name(), err)
		}
		got, err := c.Decode(old, payload)
		if err != nil {
			t.Fatalf("%s: Decode: %v", c.Name(), err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("%s: round trip mismatch: got %d bytes, want %d", c.Name(), len(got), len(cur))
		}
	}
}

func TestRoundTripColdStart(t *testing.T) {
	_, cur := versionedPair(t, 12)
	for _, c := range allCodecs(t) {
		payload, err := c.Encode(nil, cur)
		if err != nil {
			t.Fatalf("%s: Encode(nil, cur): %v", c.Name(), err)
		}
		got, err := c.Decode(nil, payload)
		if err != nil {
			t.Fatalf("%s: Decode(nil): %v", c.Name(), err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("%s: cold-start round trip mismatch", c.Name())
		}
	}
}

func TestRoundTripEmptyContent(t *testing.T) {
	for _, c := range allCodecs(t) {
		payload, err := c.Encode(nil, nil)
		if err != nil {
			t.Fatalf("%s: Encode(nil, nil): %v", c.Name(), err)
		}
		got, err := c.Decode(nil, payload)
		if err != nil {
			t.Fatalf("%s: Decode empty: %v", c.Name(), err)
		}
		if len(got) != 0 {
			t.Fatalf("%s: decoded %d bytes from empty content", c.Name(), len(got))
		}
	}
}

func TestRoundTripIdenticalVersions(t *testing.T) {
	old, _ := versionedPair(t, 13)
	for _, c := range allCodecs(t) {
		payload, err := c.Encode(old, old)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, err := c.Decode(old, payload)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(got, old) {
			t.Fatalf("%s: identical-version round trip mismatch", c.Name())
		}
		// Differencing protocols should send almost nothing.
		if c.Name() == NameBitmap || c.Name() == NameVaryBlock {
			if len(payload) > len(old)/20 {
				t.Fatalf("%s: identical versions still cost %d bytes (content %d)", c.Name(), len(payload), len(old))
			}
		}
	}
}

func TestRoundTripShrinkingAndGrowingContent(t *testing.T) {
	old, _ := versionedPair(t, 14)
	shorter := old[:len(old)/3]
	longer := append(append([]byte(nil), old...), old[:5000]...)
	for _, c := range allCodecs(t) {
		for _, cur := range [][]byte{shorter, longer} {
			payload, err := c.Encode(old, cur)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			got, err := c.Decode(old, payload)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if !bytes.Equal(got, cur) {
				t.Fatalf("%s: resize round trip mismatch (%d -> %d bytes)", c.Name(), len(old), len(cur))
			}
		}
	}
}

// The paper's Figure 11(a): Direct transfers the most bytes, Vary-sized
// blocking the least, Gzip and Bitmap in the middle. This is the byte-count
// shape the whole case study rests on.
func TestBytesTransferredOrdering(t *testing.T) {
	old, cur := versionedPair(t, 15)
	sizes := map[string]int64{}
	for _, c := range allCodecs(t) {
		payload, err := c.Encode(old, cur)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		total := int64(len(payload))
		if uc, ok := Codec(c).(UpstreamCoster); ok {
			total += uc.UpstreamBytes(old)
		}
		sizes[c.Name()] = total
	}
	t.Logf("bytes transferred: direct=%d gzip=%d bitmap=%d vary=%d",
		sizes[NameDirect], sizes[NameGzip], sizes[NameBitmap], sizes[NameVaryBlock])
	if !(sizes[NameDirect] > sizes[NameGzip]) {
		t.Errorf("direct (%d) should exceed gzip (%d)", sizes[NameDirect], sizes[NameGzip])
	}
	if !(sizes[NameGzip] > sizes[NameBitmap]) {
		t.Errorf("gzip (%d) should exceed bitmap (%d)", sizes[NameGzip], sizes[NameBitmap])
	}
	if !(sizes[NameBitmap] > sizes[NameVaryBlock]) {
		t.Errorf("bitmap (%d) should exceed varyblock (%d)", sizes[NameBitmap], sizes[NameVaryBlock])
	}
}

func TestBitmapUpstreamBytes(t *testing.T) {
	b, err := NewBitmap(512)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.UpstreamBytes(make([]byte, 1024)); got != 2*20 {
		t.Fatalf("upstream for 2 blocks = %d, want 40", got)
	}
	if got := b.UpstreamBytes(make([]byte, 1025)); got != 3*20 {
		t.Fatalf("upstream for 2.x blocks = %d, want 60", got)
	}
	if got := b.UpstreamBytes(nil); got != 0 {
		t.Fatalf("upstream for nil old = %d, want 0", got)
	}
}

func TestNewBitmapValidation(t *testing.T) {
	if _, err := NewBitmap(8); err == nil {
		t.Fatal("tiny block size accepted")
	}
	if _, err := NewBitmap(2 << 20); err == nil {
		t.Fatal("huge block size accepted")
	}
	b, err := NewBitmap(256)
	if err != nil {
		t.Fatal(err)
	}
	if b.BlockSize() != 256 {
		t.Fatalf("BlockSize = %d, want 256", b.BlockSize())
	}
}

func TestNewGzipLevelValidation(t *testing.T) {
	if _, err := NewGzipLevel(42); err == nil {
		t.Fatal("invalid gzip level accepted")
	}
	g, err := NewGzipLevel(9)
	if err != nil {
		t.Fatal(err)
	}
	_, cur := versionedPair(t, 16)
	p9, err := g.Encode(nil, cur)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := NewGzipLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := g1.Encode(nil, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(p9) > len(p1) {
		t.Fatalf("level 9 (%d bytes) larger than level 1 (%d bytes)", len(p9), len(p1))
	}
}

func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	old, cur := versionedPair(t, 17)
	for _, c := range allCodecs(t) {
		if c.Name() == NameDirect {
			continue // the null protocol has no framing to violate
		}
		payload, err := c.Encode(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		// Truncation.
		if _, err := c.Decode(old, payload[:len(payload)/2]); err == nil {
			t.Errorf("%s: truncated payload decoded without error", c.Name())
		}
		// Garbage.
		if _, err := c.Decode(old, []byte("not a payload at all")); err == nil {
			t.Errorf("%s: garbage payload decoded without error", c.Name())
		}
		// Empty payload.
		if _, err := c.Decode(old, nil); err == nil {
			t.Errorf("%s: empty payload decoded without error", c.Name())
		}
	}
}

func TestDiffDecodersRejectWrongOldVersion(t *testing.T) {
	old, cur := versionedPair(t, 18)
	wrongOld := old[:len(old)-100]
	for _, name := range []string{NameBitmap, NameVaryBlock} {
		c, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := c.Encode(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode(wrongOld, payload); err == nil {
			t.Errorf("%s: decode against wrong old version succeeded", name)
		}
	}
}

func TestVaryBlockCrossOffsetDedup(t *testing.T) {
	// Content moved to a different offset must still be found by
	// varyblock but not by bitmap: prepend a slab to shift everything.
	rng := rand.New(rand.NewSource(19))
	old := make([]byte, 64*1024)
	rng.Read(old)
	shift := make([]byte, 4096)
	rng.Read(shift)
	cur := append(append([]byte(nil), shift...), old...)

	vb, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	vp, err := vb.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewBitmap(DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := bm.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(vp)) > int64(len(cur))/4 {
		t.Fatalf("varyblock sent %d of %d bytes after a shift; dedup failed", len(vp), len(cur))
	}
	if int64(len(bp)) < int64(len(cur))*3/4 {
		t.Fatalf("bitmap sent only %d of %d bytes after a shift; fixed-offset model violated", len(bp), len(cur))
	}
	got, err := vb.Decode(old, vp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("varyblock shift round trip mismatch")
	}
}

func TestCostModelScaling(t *testing.T) {
	m := CostModel{ServerNsPerByte: 100, ClientNsPerByte: 50}
	if got := m.ServerTime(1000); got.Nanoseconds() != 100000 {
		t.Fatalf("server time = %v, want 100µs", got)
	}
	if got := m.ClientTime(1000); got.Nanoseconds() != 50000 {
		t.Fatalf("client time = %v, want 50µs", got)
	}
	if got := m.ServerTime(-5); got != 0 {
		t.Fatalf("negative byte count produced %v", got)
	}
}

func TestCostModelOrderingMatchesPaper(t *testing.T) {
	// Figure 10: vary-sized blocking has by far the largest server-side
	// computing; direct has none.
	costs := map[string]CostModel{}
	for _, c := range allCodecs(t) {
		costs[c.Name()] = c.Cost()
	}
	const page = 138 * 1024
	vary := costs[NameVaryBlock].ServerTime(page)
	gz := costs[NameGzip].ServerTime(page)
	bm := costs[NameBitmap].ServerTime(page)
	direct := costs[NameDirect].ServerTime(page)
	if !(vary > 10*gz && vary > 10*bm) {
		t.Errorf("vary server cost %v not dominant over gzip %v / bitmap %v", vary, gz, bm)
	}
	if direct != 0 {
		t.Errorf("direct server cost = %v, want 0", direct)
	}
}

// Property: all four protocols round-trip arbitrary (old, cur) pairs.
func TestRoundTripProperty(t *testing.T) {
	codecs := allCodecs(t)
	f := func(old, cur []byte) bool {
		for _, c := range codecs {
			payload, err := c.Encode(old, cur)
			if err != nil {
				return false
			}
			got, err := c.Decode(old, payload)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, cur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage never panics (errors are fine).
func TestDecodeGarbageNeverPanicsProperty(t *testing.T) {
	codecs := allCodecs(t)
	f := func(old, junk []byte) bool {
		for _, c := range codecs {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: Decode panicked on garbage: %v", c.Name(), r)
					}
				}()
				_, _ = c.Decode(old, junk)
			}()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	old, cur := versionedPair(b, 20)
	for _, name := range protocolNames {
		c, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(cur)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(old, cur); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestVaryBlockEncodeAllocsPinned pins what one stateless vary-block
// Encode allocates, as BenchmarkEncode/varyblock counts it in
// BENCH_codec.json over the same page pair. A change to the count must
// change that row too.
func TestVaryBlockEncodeAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	old, cur := versionedPair(t, 20)
	v, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := v.Encode(old, cur); err != nil {
			t.Fatal(err)
		}
	}); got != 15 {
		t.Errorf("VaryBlock.Encode: %v allocs/op, want 15 (BenchmarkEncode/varyblock's row)", got)
	}
}

func BenchmarkDecode(b *testing.B) {
	old, cur := versionedPair(b, 21)
	for _, name := range protocolNames {
		c, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		payload, err := c.Encode(old, cur)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(cur)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(old, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBaseIndependentCodecsIgnoreOld pins what the BaseIndependent marker
// asserts, on which a server rests encoding a version once for every base:
// a marked protocol's payload is the same whatever the receiver holds.
// Direct and Gzip are marked; the differencing protocols must not be.
func TestBaseIndependentCodecsIgnoreOld(t *testing.T) {
	marked := map[string]bool{}
	for _, c := range allCodecs(t) {
		if _, ok := c.(BaseIndependent); !ok {
			continue
		}
		marked[c.Name()] = true
		for i, pr := range corpusPairs(t, 3) {
			old, cur := pr[0], pr[1]
			want, err := c.Encode(nil, cur)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range [][]byte{old, cur, cur[:len(cur)/2], {}} {
				got, err := c.Encode(base, cur)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: pair %d: payload against a %d-byte base differs from the cold payload", c.Name(), i, len(base))
				}
			}
		}
	}
	if len(marked) != 2 || !marked[NameDirect] || !marked[NameGzip] {
		t.Fatalf("base-independent protocols = %v, want direct and gzip", marked)
	}
}
