// Package workload generates the deterministic content corpus the paper's
// case study serves: 75 web pages averaging ~135 KB, each composed of ~5 KB
// of text and four images totalling ~130 KB, modeled on a medical
// application server holding four 3D views per study (Section 4.2). Pages
// can be evolved into new versions with controlled mutation so that the
// differencing protocols (Bitmap, Vary-sized blocking) have realistic
// old/new pairs to work on.
package workload

import (
	"bytes"
	"fmt"
	"math/rand"

	"fractal/internal/syncx"
)

// Defaults matching the paper's corpus description.
const (
	DefaultPages     = 75
	DefaultTextBytes = 5 * 1024
	DefaultImages    = 4
	// DefaultImageBytes is sized so four images total ~130 KB.
	DefaultImageBytes = 130 * 1024 / 4
)

// Page is one adaptive-content unit: a text part and a set of image parts.
type Page struct {
	ID      string
	Version int
	Text    []byte
	Images  [][]byte
	// PoolSeed derives the page's slab dictionary (see genImages); versions
	// of the same page share it so mutations can swap dictionary slabs.
	PoolSeed int64
	// NoiseEvery is the slab noise density the page was generated with
	// (see Config.NoiseEvery); mutations reuse it so fresh slabs match the
	// page's entropy class.
	NoiseEvery int
}

// Bytes serializes the page into the single byte stream that an
// application session transfers: a fixed-width header, each image prefixed
// with a fixed-width marker, then the variable-length text. Fixed-width
// markers and images-before-text keep image offsets stable across versions
// even when text insertions change the text length, matching how real
// image assets live at stable positions while markup shifts — the property
// that gives fixed-size blocking a fair workload.
func (p *Page) Bytes() []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "PAGE %s v%06d\n", p.ID, p.Version)
	for i, img := range p.Images {
		fmt.Fprintf(&buf, "IMG %d %08d\n", i, len(img))
		buf.Write(img)
	}
	buf.WriteString("TEXT\n")
	buf.Write(p.Text)
	return buf.Bytes()
}

// Size returns the serialized size in bytes.
func (p *Page) Size() int { return len(p.Bytes()) }

// Clone returns a deep copy of the page.
func (p *Page) Clone() *Page {
	q := &Page{ID: p.ID, Version: p.Version, PoolSeed: p.PoolSeed, NoiseEvery: p.NoiseEvery}
	q.Text = append([]byte(nil), p.Text...)
	q.Images = make([][]byte, len(p.Images))
	for i, img := range p.Images {
		q.Images[i] = append([]byte(nil), img...)
	}
	return q
}

// Corpus is a versioned set of pages.
type Corpus struct {
	Pages []*Page
}

// Config controls corpus generation.
type Config struct {
	Pages      int
	TextBytes  int
	Images     int
	ImageBytes int
	Seed       int64
	// NoiseEvery controls image entropy: every NoiseEvery-th slab byte
	// receives sensor noise. 1 makes images nearly incompressible, large
	// values make them highly compressible; 0 selects the default (2),
	// which yields realistic medical-image gzip ratios.
	NoiseEvery int
}

// DefaultConfig returns the paper's corpus shape with the given seed.
func DefaultConfig(seed int64) Config {
	return Config{
		Pages:      DefaultPages,
		TextBytes:  DefaultTextBytes,
		Images:     DefaultImages,
		ImageBytes: DefaultImageBytes,
		Seed:       seed,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Pages < 1 {
		return fmt.Errorf("workload: page count must be >= 1, got %d", c.Pages)
	}
	if c.TextBytes < 0 || c.ImageBytes < 0 {
		return fmt.Errorf("workload: negative part size (text %d, image %d)", c.TextBytes, c.ImageBytes)
	}
	if c.Images < 0 {
		return fmt.Errorf("workload: negative image count %d", c.Images)
	}
	if c.NoiseEvery < 0 {
		return fmt.Errorf("workload: negative noise density %d", c.NoiseEvery)
	}
	return nil
}

// words is a small medical-flavored vocabulary used to synthesize text with
// natural-language redundancy, so Gzip achieves realistic (not degenerate)
// compression ratios.
var words = []string{
	"patient", "study", "series", "axial", "coronal", "sagittal", "slice",
	"contrast", "lesion", "volume", "render", "view", "cranial", "scan",
	"surgical", "plan", "navigation", "registration", "fiducial", "probe",
	"the", "of", "and", "with", "shows", "measured", "region", "interest",
	"left", "right", "anterior", "posterior", "update", "annotation",
}

// NewRand returns the seeded generator all workload randomness flows
// through. Threading an explicit *rand.Rand (rather than touching the
// global math/rand source, which fractal-vet's rawrand analyzer forbids)
// is what keeps corpus generation, mutation, and traces reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Generate builds a corpus deterministically from the configuration; the
// same Config always yields byte-identical content.
func Generate(cfg Config) (*Corpus, error) {
	return GenerateRand(NewRand(cfg.Seed), cfg)
}

// GenerateRand is Generate drawing from an explicit generator. Page slab
// dictionaries are still derived from cfg.Seed so that later mutations of
// the same corpus can regenerate them. Every draw from rng — each page's
// text, then its slab permutation — is made on the caller in page order;
// only the per-page work, the slab dictionary from the page's own PoolSeed
// and the images laid out from it, runs on the syncx.Each workers, so the
// corpus is the same whatever the number of cores.
func GenerateRand(rng *rand.Rand, cfg Config) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	noise := cfg.NoiseEvery
	if noise == 0 {
		noise = 2
	}
	c := &Corpus{Pages: make([]*Page, cfg.Pages)}
	perms := make([][]int, cfg.Pages)
	for i := range c.Pages {
		p := &Page{
			ID:         fmt.Sprintf("page-%03d", i),
			Version:    1,
			PoolSeed:   cfg.Seed*1_000_003 + int64(i),
			NoiseEvery: noise,
		}
		p.Text = genText(rng, cfg.TextBytes)
		perms[i] = rng.Perm(slabPoolLen)
		c.Pages[i] = p
	}
	err := syncx.Each(cfg.Pages, func(i int) error {
		p := c.Pages[i]
		p.Images = genImages(perms[i], slabPool(p.PoolSeed, noise), cfg.Images, cfg.ImageBytes)
		return nil
	})
	return c, err
}

// genText emits space-separated vocabulary words with sentence structure
// until it reaches n bytes.
func genText(rng *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	buf.Grow(n + 16)
	sentence := 0
	for buf.Len() < n {
		w := words[rng.Intn(len(words))]
		if sentence == 0 {
			buf.WriteString("<p>")
		}
		buf.WriteString(w)
		sentence++
		if sentence >= 8+rng.Intn(8) {
			buf.WriteString(".</p>\n")
			sentence = 0
		} else {
			buf.WriteByte(' ')
		}
	}
	return buf.Bytes()[:n]
}

// SlabSize is the granularity of the per-page image dictionary. Each page
// owns a pool of SlabSize-byte texture slabs; every image in every version
// of the page is a sequence of pool slabs (plus occasional fresh ones after
// mutation). This models the paper's medical workload — four 3D views of
// the same volume share large displaced regions of identical data — and is
// what lets content-defined chunking (Vary-sized blocking) dedupe content
// that fixed-offset blocking (Bitmap) cannot.
const SlabSize = 8192

// slabPoolLen is the number of distinct slabs in a page's dictionary.
const slabPoolLen = 48

// slabPool deterministically derives a page's slab dictionary from its
// PoolSeed. Both versions of a page regenerate the identical pool.
func slabPool(seed int64, noiseEvery int) [][]byte {
	rng := NewRand(seed)
	pool := make([][]byte, slabPoolLen)
	for i := range pool {
		pool[i] = genSlab(rng, noiseEvery)
	}
	return pool
}

// genSlab synthesizes one image-like texture slab: smooth gradient tiles
// with light noise, giving moderate gzip compressibility like the
// DICOM/BMP images the paper's Bitmap protocol targets.
func genSlab(rng *rand.Rand, noiseEvery int) []byte {
	if noiseEvery < 1 {
		noiseEvery = 2
	}
	s := make([]byte, SlabSize)
	const tile = 256
	var base byte
	for i := range s {
		if i%tile == 0 {
			base = byte(rng.Intn(256))
		}
		s[i] = base + byte(i%tile)/8
		if i%noiseEvery == 0 { // sensor noise controls compressibility
			if noiseEvery == 1 {
				s[i] = byte(rng.Intn(256)) // fully random: incompressible
			} else {
				s[i] += byte(rng.Intn(3)) - 1
			}
		}
	}
	return s
}

// genImages builds the page's images as sequences of dictionary slabs (the
// final slab of each image truncated to fit), taken in the order perm, a
// permutation of the pool, gives. Slabs are drawn without replacement
// while the pool lasts, so a fresh page contains no duplicated regions;
// duplication only appears through mutation, where it represents
// genuinely shared view content.
func genImages(perm []int, pool [][]byte, count, size int) [][]byte {
	next := 0
	draw := func() []byte {
		s := pool[perm[next%len(perm)]]
		next++
		return s
	}
	images := make([][]byte, count)
	for j := range images {
		img := make([]byte, 0, size)
		for len(img) < size {
			s := draw()
			take := size - len(img)
			if take > len(s) {
				take = len(s)
			}
			img = append(img, s[:take]...)
		}
		images[j] = img
	}
	return images
}

// TotalBytes returns the sum of serialized page sizes.
func (c *Corpus) TotalBytes() int64 {
	var total int64
	for _, p := range c.Pages {
		total += int64(p.Size())
	}
	return total
}

// Clone deep-copies the corpus.
func (c *Corpus) Clone() *Corpus {
	out := &Corpus{Pages: make([]*Page, len(c.Pages))}
	for i, p := range c.Pages {
		out.Pages[i] = p.Clone()
	}
	return out
}

// Page returns the page with the given ID, or an error if absent.
func (c *Corpus) Page(id string) (*Page, error) {
	for _, p := range c.Pages {
		if p.ID == id {
			return p, nil
		}
	}
	return nil, fmt.Errorf("workload: no page %q in corpus", id)
}
