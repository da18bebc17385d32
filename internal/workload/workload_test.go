package workload

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateDefaultMatchesPaperShape(t *testing.T) {
	c, err := Generate(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Pages) != 75 {
		t.Fatalf("pages = %d, want 75", len(c.Pages))
	}
	p := c.Pages[0]
	if len(p.Text) != DefaultTextBytes {
		t.Fatalf("text = %d bytes, want %d", len(p.Text), DefaultTextBytes)
	}
	if len(p.Images) != 4 {
		t.Fatalf("images = %d, want 4", len(p.Images))
	}
	// Average serialized page size should be ~135 KB (the paper's figure),
	// allow a small header margin.
	var total int64
	for _, p := range c.Pages {
		total += int64(p.Size())
	}
	avg := total / int64(len(c.Pages))
	if avg < 130*1024 || avg > 140*1024 {
		t.Fatalf("average page size = %d, want ~135KB", avg)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pages {
		if !bytes.Equal(a.Pages[i].Bytes(), b.Pages[i].Bytes()) {
			t.Fatalf("page %d differs across identical-seed generations", i)
		}
	}
	c, err := Generate(DefaultConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Pages[0].Bytes(), c.Pages[0].Bytes()) {
		t.Fatal("different seeds produced identical content")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{Pages: 0, TextBytes: 10, Images: 1, ImageBytes: 10},
		{Pages: 1, TextBytes: -1, Images: 1, ImageBytes: 10},
		{Pages: 1, TextBytes: 10, Images: -1, ImageBytes: 10},
		{Pages: 1, TextBytes: 10, Images: 1, ImageBytes: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestPageBytesRoundTripStructure(t *testing.T) {
	c, err := Generate(Config{Pages: 1, TextBytes: 100, Images: 2, ImageBytes: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b := c.Pages[0].Bytes()
	if !bytes.HasPrefix(b, []byte("PAGE page-000 v000001\n")) {
		t.Fatalf("serialized page missing header: %q", b[:24])
	}
	if n := bytes.Count(b, []byte("IMG ")); n != 2 {
		t.Fatalf("found %d image markers, want 2", n)
	}
	if !bytes.Contains(b, []byte("TEXT\n")) {
		t.Fatal("serialized page missing text section")
	}
	if c.Pages[0].Size() != len(b) {
		t.Fatalf("Size() = %d, len(Bytes()) = %d", c.Pages[0].Size(), len(b))
	}
}

// TestPageBytesHeaderWidths holds Page.Bytes and Page.Size to the
// fmt-formatted layout at versions that overflow or undercut the
// zero-padded width, a two-digit image index and a seven-digit image size.
func TestPageBytesHeaderWidths(t *testing.T) {
	for _, v := range []int{0, 1, -3, 999999, 1234567, math.MinInt64} {
		p := &Page{ID: "x", Version: v, Text: []byte("t"), Images: make([][]byte, 11)}
		p.Images[10] = make([]byte, 1234567)
		var want bytes.Buffer
		fmt.Fprintf(&want, "PAGE %s v%06d\n", p.ID, p.Version)
		for i, img := range p.Images {
			fmt.Fprintf(&want, "IMG %d %08d\n", i, len(img))
			want.Write(img)
		}
		want.WriteString("TEXT\nt")
		if got := p.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("version %d: Bytes differs from the fmt layout", v)
		}
		if p.Size() != want.Len() {
			t.Errorf("version %d: Size() = %d, want %d", v, p.Size(), want.Len())
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	c, err := Generate(Config{Pages: 1, TextBytes: 64, Images: 1, ImageBytes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pages[0]
	q := p.Clone()
	q.Text[0] ^= 0xFF
	q.Images[0][0] ^= 0xFF
	if p.Text[0] == q.Text[0] || p.Images[0][0] == q.Images[0][0] {
		t.Fatal("Clone shares backing arrays with original")
	}
}

// TestCorpusPageLookup pins the page ids every resource lookup uses:
// page-NNN by generation order.
func TestCorpusPageLookup(t *testing.T) {
	c, err := Generate(Config{Pages: 3, TextBytes: 16, Images: 0, ImageBytes: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"page-000", "page-001", "page-002"} {
		if c.Pages[i].ID != want {
			t.Fatalf("page %d has id %q, want %q", i, c.Pages[i].ID, want)
		}
	}
}

func TestMutatePreservesOriginalAndBumpsVersion(t *testing.T) {
	c, err := Generate(Config{Pages: 1, TextBytes: 2048, Images: 2, ImageBytes: 2048, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pages[0]
	orig := append([]byte(nil), p.Bytes()...)
	q, err := Mutate(p, DefaultMutation(99))
	if err != nil {
		t.Fatal(err)
	}
	if q.Version != p.Version+1 {
		t.Fatalf("version = %d, want %d", q.Version, p.Version+1)
	}
	if !bytes.Equal(p.Bytes(), orig) {
		t.Fatal("Mutate modified the original page")
	}
	if bytes.Equal(q.Bytes(), orig) {
		t.Fatal("Mutate produced an identical page at default rates")
	}
}

func TestMutateZeroRatesChangesNothingButVersion(t *testing.T) {
	c, err := Generate(Config{Pages: 1, TextBytes: 512, Images: 1, ImageBytes: 512, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pages[0]
	q, err := Mutate(p, Mutation{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Text, q.Text) {
		t.Fatal("zero-rate mutation changed text")
	}
	for i := range p.Images {
		if !bytes.Equal(p.Images[i], q.Images[i]) {
			t.Fatalf("zero-rate mutation changed image %d", i)
		}
	}
}

func TestMutateValidation(t *testing.T) {
	c, _ := Generate(Config{Pages: 1, TextBytes: 64, Images: 0, ImageBytes: 0, Seed: 1})
	bad := []Mutation{
		{TextEditFrac: -0.1},
		{TextInsertFrac: 1.5},
		{ImageRegionFrac: 2},
	}
	for i, m := range bad {
		if _, err := Mutate(c.Pages[0], m); err == nil {
			t.Errorf("case %d: invalid mutation accepted", i)
		}
	}
}

func TestMutateInsertionsGrowText(t *testing.T) {
	c, err := Generate(Config{Pages: 1, TextBytes: 4096, Images: 0, ImageBytes: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Mutate(c.Pages[0], Mutation{TextInsertFrac: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Text) <= len(c.Pages[0].Text) {
		t.Fatalf("insertion mutation did not grow text: %d <= %d", len(q.Text), len(c.Pages[0].Text))
	}
}

func TestMutateCorpusIndependentStreams(t *testing.T) {
	c, err := Generate(Config{Pages: 3, TextBytes: 1024, Images: 1, ImageBytes: 1024, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := MutateCorpus(c, DefaultMutation(17))
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Pages) != 3 {
		t.Fatalf("mutated corpus has %d pages, want 3", len(v2.Pages))
	}
	// Each page must differ from its original, and mutation must be
	// deterministic for a fixed seed.
	v2b, err := MutateCorpus(c, DefaultMutation(17))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v2.Pages {
		if bytes.Equal(v2.Pages[i].Bytes(), c.Pages[i].Bytes()) {
			t.Errorf("page %d unchanged by corpus mutation", i)
		}
		if !bytes.Equal(v2.Pages[i].Bytes(), v2b.Pages[i].Bytes()) {
			t.Errorf("page %d mutation nondeterministic", i)
		}
	}
}

// Property: mutation at moderate image rates preserves image length (tiles
// are redrawn in place), a precondition for the Bitmap protocol's
// fixed-size model to be meaningful.
func TestMutateImagePreservesLengthProperty(t *testing.T) {
	f := func(seed int64, frac uint8) bool {
		m := Mutation{ImageRegionFrac: float64(frac%101) / 100, Seed: seed}
		c, err := Generate(Config{Pages: 1, TextBytes: 0, Images: 1, ImageBytes: 3000, Seed: seed})
		if err != nil {
			return false
		}
		q, err := Mutate(c.Pages[0], m)
		if err != nil {
			return false
		}
		return len(q.Images[0]) == len(c.Pages[0].Images[0])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGenerate builds the paper's 75-page corpus, the set-up every
// reactive platform pays before it can serve; its allocs/op and B/op are
// gated in BENCH_workload.json.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(2005)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
