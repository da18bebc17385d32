package codec

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"fractal/internal/rabin"
)

// sameVerdict fails unless two decodes of one payload agree: the same
// bytes, or the same refusal.
func sameVerdict(t *testing.T, what string, want []byte, werr error, got []byte, err error) {
	t.Helper()
	switch {
	case (werr == nil) != (err == nil):
		t.Fatalf("%s: Decode says %v, DecodeHeld says %v", what, werr, err)
	case werr != nil && werr.Error() != err.Error():
		t.Fatalf("%s: Decode refuses with %q, DecodeHeld with %q", what, werr, err)
	case !bytes.Equal(got, want):
		t.Fatalf("%s: DecodeHeld gives %d bytes, Decode %d, or they differ", what, len(got), len(want))
	}
}

// TestDecodeHeldMatchesDecode holds DecodeHeld to Decode's bytes and
// verdict with the held split cold and warm: over mutated page pairs, an
// empty old version, and every row of the vary hostile table.
func TestDecodeHeldMatchesDecode(t *testing.T) {
	v, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		name     string
		old, cur []byte
	}
	var pairs []pair
	for seed := int64(1); seed <= 4; seed++ {
		old, cur := versionedPair(t, seed)
		pairs = append(pairs, pair{fmt.Sprintf("versionedPair(%d)", seed), old, cur})
	}
	_, cur := versionedPair(t, 5)
	pairs = append(pairs, pair{"empty old", nil, cur})
	for _, p := range pairs {
		payload, err := v.Encode(p.old, p.cur)
		if err != nil {
			t.Fatal(err)
		}
		want, werr := v.Decode(p.old, payload)
		if werr != nil || !bytes.Equal(want, p.cur) {
			t.Fatalf("%s: stateless decode failed: %v", p.name, werr)
		}
		h := &Held{Data: p.old}
		for _, state := range []string{"cold", "warm"} {
			got, err := v.DecodeHeld(h, payload)
			sameVerdict(t, p.name+" "+state, want, werr, got, err)
		}
	}
	for _, tc := range varyHostile {
		want, werr := v.Decode(nil, tc.payload)
		for _, h := range []*Held{nil, {}} {
			for _, state := range []string{"cold", "warm"} {
				got, err := v.DecodeHeld(h, tc.payload)
				sameVerdict(t, tc.name+" "+state, want, werr, got, err)
			}
		}
	}
}

// TestDecodeHeldSplitsOnce: the split is made by the first decode against
// a Held and reused by every later one, so a warm DecodeHeld allocates
// the output and nothing else, where Decode also allocates the chunk list.
func TestDecodeHeldSplitsOnce(t *testing.T) {
	v, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	old, cur := versionedPair(t, 7)
	payload, err := v.Encode(old, old)
	if err != nil {
		t.Fatal(err)
	}
	h := &Held{Data: old}
	if h.split.Load() != nil {
		t.Fatal("a new Held already holds a split")
	}
	if _, err := v.DecodeHeld(h, payload); err != nil {
		t.Fatal(err)
	}
	first := h.split.Load()
	if first == nil || first.cfg != v.ChunkerConfig() {
		t.Fatalf("the first decode stored split %+v, want one under the codec's config", first)
	}
	warm := testing.AllocsPerRun(20, func() {
		if _, err := v.DecodeHeld(h, payload); err != nil {
			t.Fatal(err)
		}
	})
	stateless := testing.AllocsPerRun(20, func() {
		if _, err := v.Decode(old, payload); err != nil {
			t.Fatal(err)
		}
	})
	if warm != 1 || stateless != 2 {
		t.Fatalf("allocs per decode: warm DecodeHeld %v, Decode %v; want 1 (the output) and 2 (output and chunk list)", warm, stateless)
	}
	if h.split.Load() != first {
		t.Fatal("a later decode replaced the stored split")
	}
	// A differential payload against the held version decodes from the
	// same split.
	diff, err := v.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v.DecodeHeld(h, diff); err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("differential decode through the held split: %v", err)
	}
}

// TestHeldSplitUnderOtherChunkerConfigUnused: a split made under one
// chunker configuration is never used by a codec configured otherwise,
// whose chunk indices name other boundaries; the split stays the first
// one's.
func TestHeldSplitUnderOtherChunkerConfigUnused(t *testing.T) {
	def, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	old, cur := versionedPair(t, 9)
	warmup, err := def.Encode(old, old)
	if err != nil {
		t.Fatal(err)
	}
	others := map[string]func(*rabin.ChunkerConfig){
		"vary.min":      func(c *rabin.ChunkerConfig) { c.MinSize = 128 },
		"vary.max":      func(c *rabin.ChunkerConfig) { c.MaxSize = 1024 },
		"vary.maskbits": func(c *rabin.ChunkerConfig) { c.Mask, c.Magic = 1<<11-1, c.Magic&(1<<11-1) },
	}
	for name, change := range others {
		cfg := rabin.DefaultChunkerConfig()
		change(&cfg)
		other, err := NewVaryBlockConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := &Held{Data: old}
		if _, err := def.DecodeHeld(h, warmup); err != nil {
			t.Fatal(err)
		}
		payload, err := other.Encode(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"first", "again"} {
			got, err := other.DecodeHeld(h, payload)
			if err != nil || !bytes.Equal(got, cur) {
				t.Fatalf("%s (%s decode): a codec with another %s decoded through the default split: %v", name, state, name, err)
			}
		}
		if s := h.split.Load(); s.cfg != def.ChunkerConfig() {
			t.Fatalf("%s: the held split is now under %+v, want the first decode's", name, s.cfg)
		}
	}
}

// TestConcurrentDecodeHeld races first decodes against one Held: every
// decode is right, and one split is stored for all of them.
func TestConcurrentDecodeHeld(t *testing.T) {
	v, err := NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	old, cur := versionedPair(t, 13)
	payload, err := v.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	h := &Held{Data: old}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := v.DecodeHeld(h, payload)
				if err == nil && !bytes.Equal(got, cur) {
					err = fmt.Errorf("decode %d gave other bytes", i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if h.split.Load() == nil {
		t.Fatal("no split stored")
	}
}
