package transcode

import (
	"bytes"
	"testing"
	"testing/quick"

	"fractal/internal/workload"
)

func samplePage(t testing.TB) []byte {
	t.Helper()
	c, err := workload.Generate(workload.Config{
		Pages: 1, TextBytes: 1024, Images: 2, ImageBytes: 8192, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Pages[0].Bytes()
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{NameIdentity, NameThumbnail} {
		tc, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if tc.Name() != name {
			t.Errorf("New(%q) built %q", name, tc.Name())
		}
	}
	if _, err := New("sepia-filter"); err == nil {
		t.Fatal("unknown transcoder constructed")
	}
}

func TestIdentityPassThrough(t *testing.T) {
	page := samplePage(t)
	tc, err := New(NameIdentity)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tc.Transform(page)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, page) {
		t.Fatal("identity changed content")
	}
	// Output must not alias the input.
	out[0] ^= 0xFF
	if page[0] == out[0] {
		t.Fatal("identity aliases input")
	}
	if c := (Identity{}).Cost(); c.ServerNsPerByte != 0 {
		t.Fatal("identity has nonzero cost")
	}
}

func TestThumbnailShrinksImagesOnly(t *testing.T) {
	page := samplePage(t)
	orig, err := workload.Parse(page)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := NewThumbnail(2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tc.Transform(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) >= len(page) {
		t.Fatalf("thumbnail did not shrink: %d -> %d", len(page), len(out))
	}
	thumb, err := workload.Parse(out)
	if err != nil {
		t.Fatalf("thumbnail output unparseable: %v", err)
	}
	if !bytes.Equal(thumb.Text, orig.Text) {
		t.Fatal("thumbnail modified text")
	}
	if len(thumb.Images) != len(orig.Images) {
		t.Fatalf("image count %d -> %d", len(orig.Images), len(thumb.Images))
	}
	for i := range thumb.Images {
		want := (len(orig.Images[i]) + 1) / 2
		if len(thumb.Images[i]) != want {
			t.Fatalf("image %d: %d bytes, want %d", i, len(thumb.Images[i]), want)
		}
	}
}

func TestThumbnailDeterministic(t *testing.T) {
	page := samplePage(t)
	tc, err := NewThumbnail(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tc.Transform(page)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tc.Transform(page)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("thumbnail transform not deterministic")
	}
	if tc.Factor() != 4 {
		t.Fatalf("factor = %d", tc.Factor())
	}
}

func TestThumbnailValidation(t *testing.T) {
	if _, err := NewThumbnail(1); err == nil {
		t.Fatal("factor 1 accepted")
	}
	if _, err := NewThumbnail(100); err == nil {
		t.Fatal("factor 100 accepted")
	}
	tc, err := NewThumbnail(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Transform([]byte("not a page")); err == nil {
		t.Fatal("garbage page transformed")
	}
}

func TestDecimate(t *testing.T) {
	got := decimate([]byte{10, 20, 30, 40, 50}, 2)
	if len(got) != 3 || got[0] != 15 || got[1] != 35 || got[2] != 50 {
		t.Fatalf("decimate = %v", got)
	}
	if decimate(nil, 2) != nil {
		t.Fatal("decimate(nil) != nil")
	}
}

// Property: decimation output length is ceil(n/factor) and values are
// bounded by the input range.
func TestDecimateProperty(t *testing.T) {
	f := func(data []byte, fRaw uint8) bool {
		factor := int(fRaw%8) + 2
		out := decimate(data, factor)
		wantLen := (len(data) + factor - 1) / factor
		if len(data) == 0 {
			return out == nil
		}
		return len(out) == wantLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
