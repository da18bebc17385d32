package mobilecode_test

import (
	"bytes"
	"sync"
	"testing"

	"fractal/internal/codec"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
)

// loadFixture is a signer and the verifier-armed loader that trusts it,
// as every product deploy path builds one.
func loadFixture(t *testing.T) (*mobilecode.Signer, *mobilecode.Loader) {
	t.Helper()
	signer, err := mobilecode.NewSigner("test-op")
	if err != nil {
		t.Fatal(err)
	}
	trust := mobilecode.NewTrustList()
	if err := trust.Add(signer.Entity, signer.PublicKey()); err != nil {
		t.Fatal(err)
	}
	loader, err := mobilecode.NewLoader(trust, mobilecode.DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	loader.SetVerifier(verify.LoaderVerifier())
	return signer, loader
}

// packSpec builds, signs and packs one spec.
func packSpec(t *testing.T, spec mobilecode.BuiltinSpec, signer *mobilecode.Signer) []byte {
	t.Helper()
	m, err := mobilecode.BuildModule(spec, "1.0", signer)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return packed
}

// allSpecs is every module the repository builds.
func allSpecs() []mobilecode.BuiltinSpec {
	specs := append(mobilecode.BuiltinSpecs(), mobilecode.RsyncSpec(), mobilecode.CascadeSpec())
	return append(specs, mobilecode.TranscoderSpecs()...)
}

// TestLoadAllocsPinned pins what a deploy allocates: unpacking, the
// signature check, the two programs and their proofs, the module's codecs
// and the PAD itself — no host table, capability set, VM index or chunk
// cache.
func TestLoadAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need a full run")
	}
	signer, loader := loadFixture(t)
	for _, spec := range allSpecs() {
		packed := packSpec(t, spec, signer)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := loader.Load(packed); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 30 {
			t.Errorf("%s: Load allocates %.0f per call, want <= 30", spec.ID, allocs)
		}
	}
}

// TestLoadRefusesMalformedParamOfUncalledPrimitive: every param is
// validated, those of primitives neither program calls included, with the
// error text a deploy has always reported.
func TestLoadRefusesMalformedParamOfUncalledPrimitive(t *testing.T) {
	signer, loader := loadFixture(t)
	cases := []struct {
		params map[string]string
		want   string
	}{
		{map[string]string{"rsync.block": "1"},
			"mobilecode: PAD pad-param: mobilecode: configuring rsync primitive: codec: rsync block size 1 out of range [16, 1MiB]"},
		{map[string]string{"gzip.level": "lots"},
			`mobilecode: PAD pad-param: mobilecode: param "gzip.level"="lots" is not an integer: strconv.Atoi: parsing "lots": invalid syntax`},
		{map[string]string{"vary.maskbits": "99"},
			"mobilecode: PAD pad-param: mobilecode: vary.maskbits 99 out of range [1,30]"},
	}
	for _, tc := range cases {
		spec := mobilecode.BuiltinSpec{ID: "pad-param", Protocol: codec.NameDirect, Params: tc.params,
			EncodeSrc: "CALL identity\nHALT", DecodeSrc: "CALL identity\nHALT"}
		_, err := loader.Load(packSpec(t, spec, signer))
		if err == nil || err.Error() != tc.want {
			t.Errorf("params %v => %v, want %q", tc.params, err, tc.want)
		}
	}
}

// TestLoadUnknownSymbolVerifierError: a CALL outside the primitive table
// is refused by the verifier before deploy, naming the nine-symbol
// manifest as it always has.
func TestLoadUnknownSymbolVerifierError(t *testing.T) {
	signer, loader := loadFixture(t)
	spec := mobilecode.BuiltinSpec{ID: "pad-evil", Protocol: codec.NameDirect,
		EncodeSrc: "CALL identity\nHALT", DecodeSrc: "CALL backdoor.fetch\nHALT"}
	_, err := loader.Load(packSpec(t, spec, signer))
	const want = `mobilecode: PAD pad-evil decode program: verifier rejected decode program: verify: instruction 0 (CALL): CALL outside the declared capability set: symbol "backdoor.fetch" is not in the 9-symbol manifest`
	if err == nil || err.Error() != want {
		t.Fatalf("Load => %v, want %q", err, want)
	}
}

// TestLoadedPADMakesChunkCacheOnFirstEncode: a PAD that only decodes never
// builds vary.encode's chunk-index cache; its first encode does.
func TestLoadedPADMakesChunkCacheOnFirstEncode(t *testing.T) {
	signer, loader := loadFixture(t)
	var vary mobilecode.BuiltinSpec
	for _, spec := range mobilecode.BuiltinSpecs() {
		if spec.Protocol == codec.NameVaryBlock {
			vary = spec
		}
	}
	pad, err := loader.Load(packSpec(t, vary, signer))
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte("pervasive computing adapts its protocols. "), 200)
	cur := append(bytes.Clone(old[:4000]), "an edit in the middle"...)
	cur = append(cur, old[4000:]...)
	native, err := codec.NewVaryBlock()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := native.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pad.Decode(old, payload)
	if err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("decode: %v (content equal: %v)", err, bytes.Equal(got, cur))
	}
	if st := pad.ChunkCacheStats(); st != (codec.ChunkCacheStats{}) {
		t.Fatalf("after a decode the chunk cache reads %+v, want zero", st)
	}
	if _, err := pad.Encode(old, cur); err != nil {
		t.Fatal(err)
	}
	if st := pad.ChunkCacheStats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after one encode the chunk cache reads %+v, want 2 misses and 2 entries", st)
	}

	// A fresh PAD's first encodes race its decodes and stats reads: the
	// cache is attached once, and the race detector sees no unordered
	// access to it.
	pad, err = loader.Load(packSpec(t, vary, signer))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pad.Encode(old, cur); err != nil {
				t.Error(err)
			}
			if got, err := pad.Decode(old, payload); err != nil || !bytes.Equal(got, cur) {
				t.Errorf("concurrent decode: %v", err)
			}
			pad.ChunkCacheStats()
		}()
	}
	wg.Wait()
	if st := pad.ChunkCacheStats(); st.Hits+st.Misses != 8 || st.Entries != 2 {
		t.Fatalf("after four concurrent encodes the chunk cache reads %+v, want 8 lookups and 2 entries", st)
	}
}
