package codec

import "testing"

// FuzzDecoders hardens every wire decoder against adversarial payloads.
func FuzzDecoders(f *testing.F) {
	old := []byte("the old version the receiver holds, block after block of it")
	codecs := allFuzzCodecs(f)
	for _, c := range codecs {
		payload, err := c.Encode(old, []byte("the new version with changes"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			out, err := c.Decode(old, data)
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
