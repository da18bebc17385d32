package codec

import "testing"

// FuzzDecoders hardens every wire decoder against adversarial payloads.
// The vary-block decoder also decodes every input through a Held whose
// split a valid decode warmed, and must reach the stateless verdict.
func FuzzDecoders(f *testing.F) {
	old := []byte("the old version the receiver holds, block after block of it")
	codecs := allFuzzCodecs(f)
	held := &Held{Data: old}
	for _, c := range codecs {
		payload, err := c.Encode(old, []byte("the new version with changes"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		if v, ok := c.(*VaryBlock); ok {
			if _, err := v.DecodeHeld(held, payload); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			out, err := c.Decode(old, data)
			if v, ok := c.(*VaryBlock); ok {
				got, herr := v.DecodeHeld(held, data)
				sameVerdict(t, "fuzzed payload", out, err, got, herr)
			}
			if err != nil {
				continue
			}
			if len(out) > 1<<26 {
				t.Fatalf("%s produced %d bytes from a %d-byte payload", c.Name(), len(out), len(data))
			}
		}
	})
}

func allFuzzCodecs(f *testing.F) []Costed {
	f.Helper()
	var out []Costed
	for _, name := range registered() {
		c, err := New(name)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}
