package codec

import "testing"

// FuzzDecoders hardens every wire decoder against adversarial payloads.
// The vary-block decoder also decodes every input through a Held whose
// split a valid decode warmed, and the gzip decoder through a Held that
// records the stream a valid decode inflated; each must reach the
// stateless verdict.
func FuzzDecoders(f *testing.F) {
	old := []byte("the old version the receiver holds, block after block of it")
	codecs := allFuzzCodecs(f)
	held, inflated := &Held{Data: old}, new(Held)
	for _, c := range codecs {
		payload, err := c.Encode(old, []byte("the new version with changes"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		switch c := c.(type) {
		case *VaryBlock:
			_, err = c.DecodeHeld(held, payload)
		case *Gzip:
			var out []byte
			if out, err = c.Decode(nil, payload); err == nil {
				inflated = Inflated(out, payload)
			}
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			out, err := c.Decode(old, data)
			switch c := c.(type) {
			case *VaryBlock:
				got, herr := c.DecodeHeld(held, data)
				sameVerdict(t, "fuzzed payload", out, err, got, herr)
			case *Gzip:
				got, herr := c.DecodeHeld(inflated, data)
				sameVerdict(t, "fuzzed payload through a recorded stream", out, err, got, herr)
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
	for _, name := range protocolNames {
		c, err := New(name)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}
