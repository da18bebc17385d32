package mobilecode

import (
	"bytes"
	"fmt"
	"testing"

	"fractal/internal/codec"
	"fractal/internal/workload"
)

// loadSpec builds, signs and loads spec.
func loadSpec(t *testing.T, spec BuiltinSpec) *DeployedPAD {
	t.Helper()
	return loadSpecIn(t, spec, DefaultSandbox())
}

// loadSpecIn is loadSpec under sandbox sb.
func loadSpecIn(t *testing.T, spec BuiltinSpec, sb Sandbox) *DeployedPAD {
	t.Helper()
	s := testSigner(t)
	loader, err := NewLoader(testTrust(t, s), sb)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModule(spec, "1.0", s)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	pad, err := loader.Load(packed)
	if err != nil {
		t.Fatal(err)
	}
	return pad
}

// varySpec is the builtin vary-block PAD.
func varySpec() BuiltinSpec {
	for _, s := range BuiltinSpecs() {
		if s.Protocol == codec.NameVaryBlock {
			return s
		}
	}
	panic("no builtin vary-block PAD")
}

// heldPair is a page and its next version.
func heldPair(t *testing.T) (old, cur []byte) {
	t.Helper()
	return corpusPair(t, 23)
}

// corpusPair is a page drawn from seed and its next version.
func corpusPair(t *testing.T, seed int64) (old, cur []byte) {
	t.Helper()
	c, err := workload.Generate(workload.Config{Pages: 1, TextBytes: 3072, Images: 2, ImageBytes: 8192, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	next, err := workload.Mutate(c.Pages[0], workload.DefaultMutation(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return c.Pages[0].Bytes(), next.Bytes()
}

// TestDeployedPADDecodeHeldMatchesDecode: through the vary PAD, a decode
// against a Held gives Decode's bytes, cold and warm.
func TestDeployedPADDecodeHeldMatchesDecode(t *testing.T) {
	pad := loadSpec(t, varySpec())
	old, cur := heldPair(t)
	h := &codec.Held{Data: old}
	for _, next := range [][]byte{old, cur} {
		payload, err := pad.Encode(old, next)
		if err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"cold or first", "warm"} {
			got, _, err := pad.DecodeHeld(h, payload)
			if err != nil || !bytes.Equal(got, next) {
				t.Fatalf("%s DecodeHeld: %v", state, err)
			}
		}
	}
	if got, _, err := pad.DecodeHeld(nil, mustEncode(t, pad, nil, cur)); err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("DecodeHeld with nothing held: %v", err)
	}
}

func mustEncode(t *testing.T, pad *DeployedPAD, old, cur []byte) []byte {
	t.Helper()
	p, err := pad.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestVaryDecodeOfTransformedOldSkipsHeldSplit: a decode program that
// hands vary.decode something other than the held version itself — here
// old compressed — splits what it was handed, even when the run's Held
// already holds a split under the same chunker configuration.
func TestVaryDecodeOfTransformedOldSkipsHeldSplit(t *testing.T) {
	plain := loadSpec(t, varySpec())
	transformed := varySpec()
	transformed.ID = "pad-vary-of-gzipped-old"
	// [old, x] -> [x, gzip(old)] -> [gzip(old), x] -> vary against gzip(old)
	transformed.EncodeSrc = "SWAPB\nCALL gzip.encode\nSWAPB\nCALL vary.encode\nHALT"
	transformed.DecodeSrc = "SWAPB\nCALL gzip.encode\nSWAPB\nCALL vary.decode\nHALT"
	pad := loadSpec(t, transformed)

	old, cur := heldPair(t)
	h := &codec.Held{Data: old}
	// Warm h with a split of old under the same configuration.
	if _, _, err := plain.DecodeHeld(h, mustEncode(t, plain, old, old)); err != nil {
		t.Fatal(err)
	}
	payload := mustEncode(t, pad, old, cur)
	want, err := pad.Decode(old, payload)
	if err != nil || !bytes.Equal(want, cur) {
		t.Fatalf("stateless decode of the transformed program: %v", err)
	}
	for _, state := range []string{"first", "again"} {
		got, _, err := pad.DecodeHeld(h, payload)
		if err != nil || !bytes.Equal(got, cur) {
			t.Fatalf("%s DecodeHeld of a program that transforms old: %v", state, err)
		}
	}
	// The held split still serves decodes against old itself.
	if got, _, err := plain.DecodeHeld(h, mustEncode(t, plain, old, cur)); err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("DecodeHeld against the held version after the transformed decodes: %v", err)
	}
}

// sameDecode fails unless a DecodeHeld reached Decode's bytes and verdict.
func sameDecode(t *testing.T, what string, want []byte, werr error, got []byte, err error) {
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

// TestRedeliveryMatchesStatelessDecode holds DecodeHeld to the stateless
// Decode's bytes and error text through every builtin PAD, rsync, the
// cascade and the transcoders, over corpus pairs fetched cold, then as a
// differential, then current twice, as a client re-requests a page. Each
// step decodes against a fresh Held of its base and against the Held the
// previous step returned (or, where it returned none, one made of its
// bytes), and it does so under the default sandbox and under buffer
// budgets just below and just above one and two page sizes, where the
// verdicts turn. Each payload is a copy, as a reply frame's own body is.
// Every PAD, the identities included, answers a current payload with the
// held version itself.
func TestRedeliveryMatchesStatelessDecode(t *testing.T) {
	specs := append(BuiltinSpecs(), RsyncSpec(), CascadeSpec())
	specs = append(specs, TranscoderSpecs()...)
	for _, seed := range []int64{23, 41} {
		old, cur := corpusPair(t, seed)
		page := int64(len(cur))
		budgets := []int64{DefaultSandbox().MaxBufferBytes, page - 1, page + 1, 2*page - 1, 2*page + 1}
		for _, spec := range specs {
			enc := loadSpec(t, spec)
			for _, budget := range budgets {
				pad := loadSpecIn(t, spec, Sandbox{MaxBufferBytes: budget, MaxStackDepth: DefaultSandbox().MaxStackDepth})
				var prev *codec.Held
				for _, step := range []struct {
					name      string
					base, ver []byte
				}{{"cold", nil, old}, {"diff", old, cur}, {"current", cur, cur}, {"current again", cur, cur}} {
					what := fmt.Sprintf("seed %d %s budget %d %s", seed, spec.ID, budget, step.name)
					payload := bytes.Clone(mustEncode(t, enc, step.base, step.ver))
					want, werr := pad.Decode(step.base, payload)
					var fresh *codec.Held
					if step.base != nil {
						fresh = &codec.Held{Data: bytes.Clone(step.base)}
					}
					got, h, err := pad.DecodeHeld(fresh, payload)
					sameDecode(t, what+" against a fresh Held", want, werr, got, err)
					if h != nil && !h.Holds(got) {
						t.Fatalf("%s: the Held returned against a fresh one does not hold the result", what)
					}
					if prev != nil || step.base == nil {
						got, h, err = pad.DecodeHeld(prev, payload)
						sameDecode(t, what+" against the previous decode's Held", want, werr, got, err)
						if err == nil && prev != nil && bytes.Equal(step.base, step.ver) && h != prev {
							t.Fatalf("%s: a re-delivered version was decoded again", what)
						}
					}
					if err != nil {
						prev = nil
						continue
					}
					if h != nil && !h.Holds(got) {
						t.Fatalf("%s: the returned Held does not hold the result", what)
					}
					if h == nil {
						h = &codec.Held{Data: got}
					}
					prev = h
				}
			}
		}
	}
}
