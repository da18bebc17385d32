package rabin

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// splitReference is the pre-optimization Split: every byte of every chunk
// rolls through the digest ring buffer, with the min-size constraint applied
// as a check-skip rather than a roll-skip. The bulk Split must reproduce
// its chunk sequence — offsets, lengths, and Cut fingerprints — exactly,
// because chunk boundaries are wire-visible (both endpoints re-derive
// them) and feed every figure of the evaluation.
func splitReference(c *Chunker, data []byte) []Chunk {
	var chunks []Chunk
	d := newDigest(c.tab)
	start := 0
	for start < len(data) {
		limit := start + c.cfg.MaxSize
		if limit > len(data) {
			limit = len(data)
		}
		window := data[start:limit]
		d.Reset()
		n, cut := len(window), uint64(0)
		for i := range window {
			fp := d.Roll(window[i])
			if i+1 < c.cfg.MinSize {
				continue
			}
			if fp&c.cfg.Mask == c.cfg.Magic {
				n, cut = i+1, fp
				break
			}
		}
		chunks = append(chunks, Chunk{Offset: start, Length: n, Cut: cut})
		start += n
	}
	return chunks
}

func equalChunks(a, b []Chunk) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFindCutMatchesDigestRoll(t *testing.T) {
	configs := []ChunkerConfig{
		DefaultChunkerConfig(),
		testConfig(),
		// MinSize == Window: no skip at all, the priming loop is the whole
		// window.
		{Pol: DefaultPol, Window: 16, MinSize: 16, MaxSize: 128, Mask: (1 << 5) - 1, Magic: 0x3},
		// Wide mask: cuts are rare, most chunks are forced at MaxSize.
		{Pol: DefaultPol, Window: 32, MinSize: 64, MaxSize: 1024, Mask: (1 << 20) - 1, Magic: 0x11},
	}
	rng := rand.New(rand.NewSource(77))
	for ci, cfg := range configs {
		ch, err := NewChunker(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		for _, size := range []int{0, 1, cfg.MinSize - 1, cfg.MinSize, cfg.MinSize + 1, cfg.MaxSize, cfg.MaxSize + 1, 40000} {
			data := make([]byte, size)
			rng.Read(data)
			got := ch.Split(data)
			want := splitReference(ch, data)
			if !equalChunks(got, want) {
				t.Fatalf("config %d, size %d: bulk split %+v != reference %+v", ci, size, got, want)
			}
		}
		// Low-entropy input: long runs make mask matches cluster.
		data := make([]byte, 20000)
		for i := range data {
			data[i] = byte(i / 1000)
		}
		if got, want := ch.Split(data), splitReference(ch, data); !equalChunks(got, want) {
			t.Fatalf("config %d: bulk split diverges from reference on low-entropy input", ci)
		}
	}
}

// Property: bulk and reference splits agree on arbitrary inputs.
func TestFindCutEquivalenceProperty(t *testing.T) {
	ch, err := NewChunker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte) bool {
		return equalChunks(ch.Split(data), splitReference(ch, data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
