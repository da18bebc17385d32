package mobilecode

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha1"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"fractal/internal/codec"
	"fractal/internal/rabin"
	"fractal/internal/wire"
	"fractal/internal/workload"
)

func testSigner(t testing.TB) *Signer {
	t.Helper()
	s, err := NewSigner("app-server")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testTrust(t testing.TB, signers ...*Signer) *TrustList {
	t.Helper()
	tr := NewTrustList()
	for _, s := range signers {
		if err := tr.Add(s.Entity, s.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func simplePayload(t testing.TB) Payload {
	t.Helper()
	bin, err := MustAssemble("CALL identity\nHALT").MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return Payload{Protocol: codec.NameDirect, Encode: bin, Decode: bin}
}

func TestModulePackUnpackRoundTrip(t *testing.T) {
	s := testSigner(t)
	m, err := NewModule("pad-x", "1.0", simplePayload(t), s)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	u, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, m) {
		t.Fatalf("round trip mismatch: %+v vs %+v", u, m)
	}
	if m.Size() != int64(len(packed)) {
		t.Fatalf("Size() = %d, want %d", m.Size(), len(packed))
	}
}

func TestNewModuleValidation(t *testing.T) {
	s := testSigner(t)
	p := simplePayload(t)
	if _, err := NewModule("", "1", p, s); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := NewModule("x", "", p, s); err == nil {
		t.Error("empty version accepted")
	}
	if _, err := NewModule("x", "1", p, nil); err == nil {
		t.Error("nil signer accepted")
	}
	bad := p
	bad.Protocol = ""
	if _, err := NewModule("x", "1", bad, s); err == nil {
		t.Error("payload without protocol accepted")
	}
	bad = p
	bad.Encode = []byte{0xFF, 0xFF}
	if _, err := NewModule("x", "1", bad, s); err == nil {
		t.Error("corrupt encode program accepted")
	}
}

func TestUnpackRejectsTampering(t *testing.T) {
	s := testSigner(t)
	m, err := NewModule("pad-x", "1.0", simplePayload(t), s)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Flip the last byte of the section, just before the digest and the
	// signature: the digest check must trip.
	tampered := append([]byte(nil), packed...)
	tampered[len(tampered)-sha1.Size-ed25519.SignatureSize-1] ^= 0x01
	if _, err := Unpack(tampered); err == nil {
		t.Error("tampered module unpacked cleanly")
	}
	if _, err := Unpack(packed[:len(packed)/2]); err == nil {
		t.Error("truncated module unpacked")
	}
	if _, err := Unpack([]byte("garbage")); err == nil {
		t.Error("garbage unpacked")
	}
	if _, err := Unpack(append(packed, 0xAA)); err == nil {
		t.Error("module with trailing bytes unpacked")
	}
}

func TestSignatureVerification(t *testing.T) {
	good := testSigner(t)
	evil, err := NewSigner("mallory")
	if err != nil {
		t.Fatal(err)
	}
	trust := testTrust(t, good)

	m, err := NewModule("pad-x", "1.0", simplePayload(t), good)
	if err != nil {
		t.Fatal(err)
	}
	if err := trust.Verify(m.Entity, m.ID, m.Version, m.Digest, m.Sig); err != nil {
		t.Fatalf("legitimate module rejected: %v", err)
	}
	// Untrusted signer.
	em, err := NewModule("pad-x", "1.0", simplePayload(t), evil)
	if err != nil {
		t.Fatal(err)
	}
	if err := trust.Verify(em.Entity, em.ID, em.Version, em.Digest, em.Sig); err == nil {
		t.Error("module signed by untrusted entity verified")
	}
	// Signature transplanted onto a different PAD id.
	if err := trust.Verify(m.Entity, "pad-other", m.Version, m.Digest, m.Sig); err == nil {
		t.Error("signature accepted for a different PAD id")
	}
	// Wrong version.
	if err := trust.Verify(m.Entity, m.ID, "2.0", m.Digest, m.Sig); err == nil {
		t.Error("signature accepted for a different version")
	}
}

func TestTrustListManagement(t *testing.T) {
	s := testSigner(t)
	tr := NewTrustList()
	if err := tr.Add("", s.PublicKey()); err == nil {
		t.Error("empty entity accepted")
	}
	if err := tr.Add("e", []byte("short")); err == nil {
		t.Error("malformed key accepted")
	}
	if err := tr.Add("alpha", s.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add("beta", s.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if len(tr.keys) != 2 || tr.keys["alpha"] == nil || tr.keys["beta"] == nil {
		t.Fatalf("trusted keys = %v", tr.keys)
	}
}

func TestLoaderFullPipeline(t *testing.T) {
	s := testSigner(t)
	trust := testTrust(t, s)
	loader, err := NewLoader(trust, DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	mods, err := buildBuiltins("1.0", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 4 {
		t.Fatalf("built %d modules, want 4", len(mods))
	}
	// Real versioned content through every deployed PAD.
	c, err := workload.Generate(workload.Config{Pages: 1, TextBytes: 4096, Images: 2, ImageBytes: 16384, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := workload.Mutate(c.Pages[0], workload.DefaultMutation(9))
	if err != nil {
		t.Fatal(err)
	}
	old, cur := c.Pages[0].Bytes(), v2.Bytes()
	for _, m := range mods {
		packed, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		pad, err := loader.Load(packed)
		if err != nil {
			t.Fatalf("loading %s: %v", m.ID, err)
		}
		if pad.ID() != m.ID {
			t.Fatalf("deployed id = %q, want %q", pad.ID(), m.ID)
		}
		payload, err := pad.Encode(old, cur)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.ID, err)
		}
		got, err := pad.Decode(old, payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.ID, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("%s: mobile-code round trip mismatch", m.ID)
		}
	}
}

func TestLoaderMatchesNativeCodecs(t *testing.T) {
	// A deployed PAD must produce payloads the native codec implementation
	// can decode and vice versa: the mobile code is the same protocol.
	s := testSigner(t)
	loader, err := NewLoader(testTrust(t, s), DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	c, err := workload.Generate(workload.Config{Pages: 1, TextBytes: 2048, Images: 1, ImageBytes: 16384, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := workload.Mutate(c.Pages[0], workload.DefaultMutation(11))
	if err != nil {
		t.Fatal(err)
	}
	old, cur := c.Pages[0].Bytes(), v2.Bytes()
	for _, spec := range BuiltinSpecs() {
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
		native, err := codec.New(spec.Protocol)
		if err != nil {
			t.Fatal(err)
		}
		fromPAD, err := pad.Encode(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		got, err := native.Decode(old, fromPAD)
		if err != nil {
			t.Fatalf("%s: native decode of PAD payload: %v", spec.ID, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("%s: native decode of PAD payload mismatch", spec.ID)
		}
		fromNative, err := native.Encode(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		got, err = pad.Decode(old, fromNative)
		if err != nil {
			t.Fatalf("%s: PAD decode of native payload: %v", spec.ID, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("%s: PAD decode of native payload mismatch", spec.ID)
		}
	}
}

func TestLoaderRejectsUntrustedAndTampered(t *testing.T) {
	s := testSigner(t)
	evil, err := NewSigner("mallory")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(testTrust(t, s), DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewModule("pad-x", "1", simplePayload(t), evil)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := em.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load(packed); err == nil {
		t.Error("loader deployed PAD from untrusted signer")
	}
	// No trust list at all.
	bare, err := NewLoader(nil, DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	gm, err := NewModule("pad-x", "1", simplePayload(t), s)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := gm.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Load(gp); err == nil {
		t.Error("loader without trust list deployed a PAD")
	}
}

func TestBuiltinSpecsCoverTable1(t *testing.T) {
	specs := BuiltinSpecs()
	wantProtos := map[string]bool{
		codec.NameDirect: false, codec.NameGzip: false,
		codec.NameBitmap: false, codec.NameVaryBlock: false,
	}
	for _, s := range specs {
		if _, ok := wantProtos[s.Protocol]; !ok {
			t.Errorf("unexpected protocol %q", s.Protocol)
		}
		wantProtos[s.Protocol] = true
		if !strings.HasPrefix(s.ID, "pad-") {
			t.Errorf("PAD id %q missing pad- prefix", s.ID)
		}
	}
	for p, seen := range wantProtos {
		if !seen {
			t.Errorf("Table 1 protocol %q has no PAD spec", p)
		}
	}
}

func TestBuiltinModuleSizesAreOrdered(t *testing.T) {
	// The overhead model depends on PAD sizes being nontrivial and
	// distinct: direct < gzip < bitmap < vary.
	s := testSigner(t)
	mods, err := buildBuiltins("1.0", s)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, m := range mods {
		sizes[m.ID] = m.Size()
	}
	if !(sizes["pad-direct"] < sizes["pad-gzip"] &&
		sizes["pad-gzip"] < sizes["pad-bitmap"] &&
		sizes["pad-bitmap"] < sizes["pad-vary"]) {
		t.Fatalf("PAD sizes not ordered: %v", sizes)
	}
	if sizes["pad-direct"] < 1024 {
		t.Fatalf("pad-direct suspiciously small: %d bytes", sizes["pad-direct"])
	}
}

// TestBuiltinModuleDigestsArePinned fixes the payload bytes of every
// builtin module: the programs' wire encoding, the params and the library
// blob. PAD sizes, and through them the simulated figures, follow from
// these bytes, so a change to the program language that moves one byte of
// a shipped module fails here.
func TestBuiltinModuleDigestsArePinned(t *testing.T) {
	want := map[string]string{
		"pad-direct":  "856a297c41b152513465c2dcbc3610e79ce68334",
		"pad-gzip":    "da8cf077ca4101c1da5fe0dde98b918c8b0efa7e",
		"pad-bitmap":  "7fe259213bf008e40f57eef440f8693b7c99c2e7",
		"pad-vary":    "33bb3469025de56a697ec7efb7b5e44cf5e3fa8e",
		"pad-rsync":   "7804f4d1bf269955a3bc58d401212ab751de1563",
		"pad-cascade": "980d68653424a97ca2c17171bfa13624464f3a43",
		"pad-full":    "e8f76e2ca10969cf40dda4d07de5cf04f04f1171",
		"pad-thumb":   "d566d5a5c267501fe55f2a1feec937964545f558",
	}
	specs := append(BuiltinSpecs(), RsyncSpec(), CascadeSpec())
	specs = append(specs, TranscoderSpecs()...)
	if len(specs) != len(want) {
		t.Fatalf("%d builtin specs, %d pinned digests", len(specs), len(want))
	}
	s := testSigner(t)
	for _, spec := range specs {
		m, err := BuildModule(spec, "1.0", s)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", m.Digest); got != want[spec.ID] {
			t.Errorf("%s: payload digest %s, want %s", spec.ID, got, want[spec.ID])
		}
	}
}

func TestHostTableParamValidation(t *testing.T) {
	bad := []map[string]string{
		{"gzip.level": "lots"},
		{"gzip.level": "42"},
		{"bitmap.block": "1"},
		{"vary.maskbits": "99"},
		{"vary.min": "banana"},
	}
	for i, params := range bad {
		if _, err := HostTable(params); err == nil {
			t.Errorf("case %d: bad params %v accepted", i, params)
		}
	}
	if _, err := HostTable(map[string]string{"lib": "opaque blob ignored"}); err != nil {
		t.Fatalf("unrelated params rejected: %v", err)
	}
}

// Property: pack/unpack round trip preserves arbitrary ids and versions.
func TestModuleIdentityRoundTripProperty(t *testing.T) {
	s := testSigner(t)
	payload := simplePayload(t)
	f := func(idRaw, verRaw []byte) bool {
		id := "pad-" + sanitize(idRaw)
		ver := "v" + sanitize(verRaw)
		m, err := NewModule(id, ver, payload, s)
		if err != nil {
			return false
		}
		packed, err := m.Pack()
		if err != nil {
			return false
		}
		u, err := Unpack(packed)
		return err == nil && u.ID == id && u.Version == ver
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// sanitize maps arbitrary bytes into a short printable token.
func sanitize(b []byte) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	if len(b) > 32 {
		b = b[:32]
	}
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = alpha[int(c)%len(alpha)]
	}
	return string(out)
}

func TestCascadeCompositeProtocol(t *testing.T) {
	s := testSigner(t)
	loader, err := NewLoader(testTrust(t, s), DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModule(CascadeSpec(), "1.0", s)
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
	c, err := workload.Generate(workload.Config{Pages: 1, TextBytes: 8192, Images: 2, ImageBytes: 16384, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := workload.Mutate(c.Pages[0], workload.DefaultMutation(61))
	if err != nil {
		t.Fatal(err)
	}
	old, cur := c.Pages[0].Bytes(), v2.Bytes()
	payload, err := pad.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pad.Decode(old, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("cascade round trip mismatch")
	}
	// The cascade must beat plain vary on this delta: literal chunks
	// (fresh slabs + edited text) compress.
	vb, err := codec.NewVaryBlockConfig(rabin.DefaultChunkerConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := vb.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) >= len(plain) {
		t.Fatalf("cascade payload %d not below plain vary %d", len(payload), len(plain))
	}
	t.Logf("cascade: %d bytes vs plain vary %d (%.0f%% smaller)",
		len(payload), len(plain), 100*(1-float64(len(payload))/float64(len(plain))))
}

func TestCascadeInteroperatesWithNativePrimitives(t *testing.T) {
	// Decoding a cascade payload by hand with the two native codecs
	// proves the mobile code is the same protocol, not a lookalike.
	s := testSigner(t)
	loader, err := NewLoader(testTrust(t, s), DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModule(CascadeSpec(), "1.0", s)
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
	old := bytes.Repeat([]byte("basis-content-"), 2000)
	cur := append(append([]byte(nil), old[:10000]...), bytes.Repeat([]byte("NEW"), 4000)...)
	payload, err := pad.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := codec.NewGzipLevel(6)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := gz.Decode(nil, payload)
	if err != nil {
		t.Fatalf("outer layer is not gzip: %v", err)
	}
	vb, err := codec.NewVaryBlockConfig(rabin.DefaultChunkerConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := vb.Decode(old, inner)
	if err != nil {
		t.Fatalf("inner layer is not a vary delta: %v", err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("hand-decoded cascade mismatch")
	}
}

// rawModule assembles FMC2 bytes by hand around a section, with a digest
// that matches it, so a test reaches the checks behind the digest.
func rawModule(id, version, entity string, sec, sig []byte) []byte {
	b := wire.AppendString([]byte(moduleMagic), id)
	b = wire.AppendString(b, version)
	b = wire.AppendString(b, entity)
	b = wire.AppendBytes(b, sec)
	digest := sha1.Sum(sec)
	return append(append(b, digest[:]...), sig...)
}

// regressionSeed is the input an earlier unpacker accepted with an empty
// id, version and entity, under the FMC2 magic.
func regressionSeed() []byte {
	return rawModule("", "", "", nil, append([]byte{0x40}, make([]byte, ed25519.SignatureSize)...))
}

// rawSection assembles a section with an identity program on both sides;
// params are written in the order given, as key, value pairs.
func rawSection(t *testing.T, protocol string, params ...string) []byte {
	t.Helper()
	p := simplePayload(t)
	b := wire.AppendString(nil, protocol)
	b = wire.AppendBytes(b, p.Encode)
	b = wire.AppendBytes(b, p.Decode)
	b = wire.AppendCount(b, len(params)/2, false)
	for _, s := range params {
		b = wire.AppendString(b, s)
	}
	return b
}

// TestUnpackRefusesWhatPackCannotProduce pins Unpack to the modules Pack
// and NewModule can write: each input below carries a section digest that
// verifies, so the refusal comes from the check named.
func TestUnpackRefusesWhatPackCannotProduce(t *testing.T) {
	sig := make([]byte, ed25519.SignatureSize)
	sec := rawSection(t, "direct", "a", "1", "b", "2")
	if _, err := Unpack(rawModule("pad-x", "1", "e", sec, sig)); err != nil {
		t.Fatalf("well-formed control refused: %v", err)
	}
	for name, b := range map[string][]byte{
		// The input an earlier unpacker accepted (four empty fields, the
		// SHA-1 of nothing, a 0x40 signature length, 64 zero bytes),
		// re-headed FMC2; FuzzUnpack keeps it as a seed.
		"empty identity, empty section": regressionSeed(),
		"empty id":                      rawModule("", "1", "e", sec, sig),
		"empty version":                 rawModule("pad-x", "", "e", sec, sig),
		"empty entity":                  rawModule("pad-x", "1", "", sec, sig),
		"empty protocol":                rawModule("pad-x", "1", "e", rawSection(t, ""), sig),
		"short signature":               rawModule("pad-x", "1", "e", sec, sig[:63]),
		"long signature":                rawModule("pad-x", "1", "e", sec, append(sig, 0)),
		"params out of order":           rawModule("pad-x", "1", "e", rawSection(t, "direct", "b", "2", "a", "1"), sig),
		"params repeated":               rawModule("pad-x", "1", "e", rawSection(t, "direct", "a", "1", "a", "2"), sig),
		"section trailing bytes":        rawModule("pad-x", "1", "e", append(sec, 0), sig),
		"non-minimal length":            rawModule("pad-x", "1", "e", append([]byte{0x86, 0x00}, sec[1:]...), sig),
		"truncated section":             rawModule("pad-x", "1", "e", sec, sig)[:20],
		"params count past bytes":       rawModule("pad-x", "1", "e", append(sec[:len(sec)-9], 0xFF, 0x0F), sig),
	} {
		if _, err := Unpack(b); err == nil {
			t.Errorf("%s: unpacked cleanly", name)
		}
	}
}

// TestUnpackHostileParamsCountNoHugeAllocation pins the bound
// wire.Reader.Count puts on a section's params count: a module whose
// count claims a million entries, with a few bytes left behind it, is
// refused before the params table is sized from the claim.
func TestUnpackHostileParamsCountNoHugeAllocation(t *testing.T) {
	p := simplePayload(t)
	sec := wire.AppendString(nil, "direct")
	sec = wire.AppendBytes(sec, p.Encode)
	sec = wire.AppendBytes(sec, p.Decode)
	sec = wire.AppendCount(sec, 1<<20, false)
	sec = wire.AppendString(wire.AppendString(sec, "a"), "1")
	packed := rawModule("pad-x", "1", "e", sec, make([]byte, ed25519.SignatureSize))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Unpack(packed)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a params count past the bytes left unpacked cleanly")
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 4<<20 {
		t.Fatalf("refusing a million-entry params claim allocated %d bytes", delta)
	}
}

// TestUnpackRefusesFMC1 pins the format switch: a module under the old
// magic, whatever follows it, is refused at the header.
func TestUnpackRefusesFMC1(t *testing.T) {
	m, err := NewModule("pad-x", "1.0", simplePayload(t), testSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte("FMC1"), packed[len(moduleMagic):]...)
	if _, err := Unpack(old); err == nil || !strings.Contains(err.Error(), `"FMC1"`) {
		t.Fatalf("FMC1 module: err = %v, want a refusal naming the magic", err)
	}
}
