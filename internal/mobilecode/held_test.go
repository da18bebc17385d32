package mobilecode

import (
	"bytes"
	"testing"

	"fractal/internal/codec"
	"fractal/internal/workload"
)

// loadSpec builds, signs and loads spec.
func loadSpec(t *testing.T, spec BuiltinSpec) *DeployedPAD {
	t.Helper()
	s := testSigner(t)
	loader, err := NewLoader(testTrust(t, s), DefaultSandbox())
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
	c, err := workload.Generate(workload.Config{Pages: 1, TextBytes: 3072, Images: 2, ImageBytes: 8192, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	next, err := workload.Mutate(c.Pages[0], workload.DefaultMutation(24))
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
			got, err := pad.DecodeHeld(h, payload)
			if err != nil || !bytes.Equal(got, next) {
				t.Fatalf("%s DecodeHeld: %v", state, err)
			}
		}
	}
	if got, err := pad.DecodeHeld(nil, mustEncode(t, pad, nil, cur)); err != nil || !bytes.Equal(got, cur) {
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
	if _, err := plain.DecodeHeld(h, mustEncode(t, plain, old, old)); err != nil {
		t.Fatal(err)
	}
	payload := mustEncode(t, pad, old, cur)
	want, err := pad.Decode(old, payload)
	if err != nil || !bytes.Equal(want, cur) {
		t.Fatalf("stateless decode of the transformed program: %v", err)
	}
	for _, state := range []string{"first", "again"} {
		got, err := pad.DecodeHeld(h, payload)
		if err != nil || !bytes.Equal(got, cur) {
			t.Fatalf("%s DecodeHeld of a program that transforms old: %v", state, err)
		}
	}
	// The held split still serves decodes against old itself.
	if got, err := plain.DecodeHeld(h, mustEncode(t, plain, old, cur)); err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("DecodeHeld against the held version after the transformed decodes: %v", err)
	}
}
