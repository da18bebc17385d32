package mobilecode

import (
	"crypto/sha1"
	"reflect"
	"testing"
)

// FuzzUnpack hardens module unpacking: arbitrary bytes must be rejected
// cleanly (no panic), and anything accepted must be a module Pack could
// have written — a non-empty identity, a digest that verifies over its
// section as Pack encodes it, and Unpack(Pack(Unpack(b))) = Unpack(b).
func FuzzUnpack(f *testing.F) {
	signer, err := NewSigner("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	bin, err := MustAssemble("CALL identity\nHALT").MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	m, err := NewModule("pad-fuzz", "1", Payload{Protocol: "direct", Encode: bin, Decode: bin, Params: map[string]string{"k": "v"}}, signer)
	if err != nil {
		f.Fatal(err)
	}
	packed, err := m.Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(packed)
	f.Add(append([]byte("FMC1"), packed[len(moduleMagic):]...)) // refused
	f.Add(packed[:len(packed)/2])                               // truncated section
	f.Add(regressionSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := Unpack(data)
		if err != nil {
			return
		}
		if u.ID == "" || u.Version == "" || u.Entity == "" {
			t.Fatalf("unpacked module with empty identity %q/%q/%q", u.ID, u.Version, u.Entity)
		}
		if !DigestEqual(sha1.Sum(u.appendSection(nil)), u.Digest) {
			t.Fatal("accepted module's digest does not verify over its re-encoded section")
		}
		again, err := u.Pack()
		if err != nil {
			t.Fatalf("accepted module does not pack: %v", err)
		}
		v, err := Unpack(again)
		if err != nil {
			t.Fatalf("repacked module refused: %v", err)
		}
		if !reflect.DeepEqual(u, v) {
			t.Fatalf("Unpack(Pack(Unpack(b))) = %+v, want %+v", v, u)
		}
	})
}

// FuzzUnmarshalProgram hardens program decoding.
func FuzzUnmarshalProgram(f *testing.F) {
	bin, err := MustAssemble("DUPB\nSWAPB\nDROPB\nCALL identity\nHALT").MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalProgram(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder produced invalid program: %v", err)
		}
	})
}
