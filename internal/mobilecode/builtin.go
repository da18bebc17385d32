package mobilecode

import (
	"fmt"
	"math/rand"

	"fractal/internal/codec"
)

// BuiltinSpec describes one of the case-study PADs (Table 1 of the paper)
// ready to be assembled, packaged, and signed.
type BuiltinSpec struct {
	ID        string
	Protocol  string // protocol name; keys the overhead model and matrices
	Params    map[string]string
	EncodeSrc string
	DecodeSrc string
	// Cost is the reference-CPU cost model for protocols that have no
	// native codec implementation (pure VM compositions); zero means
	// "look the native codec up by Protocol".
	Cost codec.CostModel
	// LibBytes is the size of the bundled support library blob. The
	// paper's PADs are Java class objects of nontrivial size; the blob
	// stands in for that code so PAD download time behaves realistically
	// in the overhead model.
	LibBytes int
}

// BuiltinSpecs returns the four communication-optimization PADs of the
// case study. The encode program runs with buffer stack [old, cur] and
// leaves the wire payload on top; the decode program runs with
// [old, payload] and leaves the reconstructed content on top.
func BuiltinSpecs() []BuiltinSpec {
	return []BuiltinSpec{
		{
			ID:       "pad-direct",
			Protocol: codec.NameDirect,
			EncodeSrc: `
				; Direct sending: the payload is the content itself.
				CALL identity
				HALT`,
			DecodeSrc: `
				CALL identity
				HALT`,
			LibBytes: 2 * 1024,
		},
		{
			ID:       "pad-gzip",
			Protocol: codec.NameGzip,
			Params:   map[string]string{"gzip.level": "-1"},
			EncodeSrc: `
				; Compress the current content; the old version is unused.
				CALL gzip.encode
				HALT`,
			DecodeSrc: `
				CALL gzip.decode
				HALT`,
			LibBytes: 18 * 1024,
		},
		{
			ID:       "pad-bitmap",
			Protocol: codec.NameBitmap,
			Params:   map[string]string{"bitmap.block": "512"},
			EncodeSrc: `
				; Fixed-size blocking diff of (old, cur).
				CALL bitmap.encode
				HALT`,
			DecodeSrc: `
				CALL bitmap.decode
				HALT`,
			LibBytes: 26 * 1024,
		},
		{
			ID:       "pad-vary",
			Protocol: codec.NameVaryBlock,
			Params: map[string]string{
				"vary.min":      "256",
				"vary.max":      "4096",
				"vary.maskbits": "9",
			},
			EncodeSrc: `
				; Content-defined chunking diff of (old, cur).
				CALL vary.encode
				HALT`,
			DecodeSrc: `
				CALL vary.decode
				HALT`,
			LibBytes: 42 * 1024,
		},
	}
}

// RsyncSpec is the fix-sized blocking protocol of Rsync [50], not part of
// the paper's four-PAD case study but available for the dynamic-extension
// scenario: a fifth protocol added to a running deployment.
func RsyncSpec() BuiltinSpec {
	return BuiltinSpec{
		ID:       "pad-rsync",
		Protocol: codec.NameRsync,
		Params:   map[string]string{"rsync.block": "512"},
		EncodeSrc: `
			; Fix-sized blocking (rsync) diff of (old, cur).
			CALL rsync.encode
			HALT`,
		DecodeSrc: `
			CALL rsync.decode
			HALT`,
		LibBytes: 22 * 1024,
	}
}

// TranscoderSpecs returns the content-adaptation PADs of the Section 5
// extension: a full-fidelity rendition and a downscaled thumbnail
// rendition. Content adaptation is applied at the server; the client-side
// programs are identities because the adapted content is exactly what the
// client consumes. Protocol names match transcode's transcoder names.
func TranscoderSpecs() []BuiltinSpec {
	identity := `
		CALL identity
		HALT`
	return []BuiltinSpec{
		{
			ID:        "pad-full",
			Protocol:  "full",
			EncodeSrc: identity,
			DecodeSrc: identity,
			LibBytes:  1024,
		},
		{
			ID:        "pad-thumb",
			Protocol:  "thumbnail",
			EncodeSrc: identity,
			DecodeSrc: identity,
			LibBytes:  6 * 1024,
		},
	}
}

// CascadeSpec composes two primitives into a protocol that exists in no
// native codec: the content is differenced with content-defined chunking
// and the resulting delta stream is then gzip-compressed (literal chunks
// are themselves compressible). This is what mobile code buys the
// framework — new protocol logic assembled from deployed primitives
// without shipping new native code.
func CascadeSpec() BuiltinSpec {
	return BuiltinSpec{
		ID:       "pad-cascade",
		Protocol: "cascade",
		// Roughly the vary server cost plus gzip over the (small) delta,
		// and both decode stages on the client.
		Cost: codec.CostModel{ServerNsPerByte: 19100, ClientNsPerByte: 2400},
		Params: map[string]string{
			"vary.min": "256", "vary.max": "4096", "vary.maskbits": "9",
			"gzip.level": "6",
		},
		EncodeSrc: `
			; stack: [old, cur] -> vary delta -> gzip-compressed delta
			CALL vary.encode
			CALL gzip.encode
			HALT`,
		DecodeSrc: `
			; stack: [old, payload] -> decompress (arity 1 leaves old below)
			; -> resolve the delta against old
			CALL gzip.decode
			CALL vary.decode
			HALT`,
		LibBytes: 4 * 1024,
	}
}

// BuildModule assembles, packages, and signs one spec at a version.
func BuildModule(spec BuiltinSpec, version string, signer *Signer) (*Module, error) {
	enc, err := Assemble(spec.EncodeSrc)
	if err != nil {
		return nil, fmt.Errorf("mobilecode: %s encode source: %w", spec.ID, err)
	}
	dec, err := Assemble(spec.DecodeSrc)
	if err != nil {
		return nil, fmt.Errorf("mobilecode: %s decode source: %w", spec.ID, err)
	}
	encBin, err := enc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	decBin, err := dec.MarshalBinary()
	if err != nil {
		return nil, err
	}
	params := map[string]string{}
	for k, v := range spec.Params {
		params[k] = v
	}
	if spec.LibBytes > 0 {
		params["lib"] = string(libBlob(rand.New(rand.NewSource(libSeed(spec.ID))), spec.LibBytes))
	}
	return NewModule(spec.ID, version, Payload{
		Protocol: spec.Protocol,
		Encode:   encBin,
		Decode:   decBin,
		Params:   params,
	}, signer)
}

// libSeed derives a PAD's deterministic blob seed from its identifier, so
// every build of the same module carries byte-identical support-library
// bytes (the module digest depends on them).
func libSeed(id string) int64 {
	var seed int64
	for _, c := range id {
		seed = seed*131 + int64(c)
	}
	return seed
}

// libBlob synthesizes a support-library blob of printable bytes
// (JSON-safe) for a PAD from an explicit seeded generator.
func libBlob(rng *rand.Rand, n int) []byte {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return b
}
