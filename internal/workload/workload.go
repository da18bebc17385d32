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
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

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
	// PoolSeed seeds the page's slab dictionary (see genImages).
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
	b := append(make([]byte, 0, p.Size()), "PAGE "...)
	b = append(appendPadded(append(append(b, p.ID...), " v"...), p.Version, 6), '\n')
	for i, img := range p.Images {
		b = append(appendPadded(append(b, "IMG "...), i, 0), ' ')
		b = append(appendPadded(b, len(img), 8), '\n')
		b = append(b, img...)
	}
	return append(append(b, "TEXT\n"...), p.Text...)
}

// Size returns the serialized size in bytes, without serializing.
func (p *Page) Size() int {
	var d [24]byte
	n := len("PAGE  v\nTEXT\n") + len(p.ID) + len(appendPadded(d[:0], p.Version, 6)) + len(p.Text)
	for i, img := range p.Images {
		n += len("IMG  \n") + len(appendPadded(d[:0], i, 0)) + len(appendPadded(d[:0], len(img), 8)) + len(img)
	}
	return n
}

// appendPadded appends v as fmt's %0<width>d verb prints it.
func appendPadded(b []byte, v, width int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(v), 10)
	if v < 0 {
		b, digits, width = append(b, '-'), digits[1:], width-1
	}
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

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
// dictionaries are derived from cfg.Seed, not from rng. Every draw from
// rng — each page's text, then its slab permutation — is made on the
// caller in page order; only the per-page work, the images drawn from the
// page's own PoolSeed, runs on the syncx.Each workers, so the corpus is
// the same whatever the number of cores.
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
		p.Images = genImages(p.PoolSeed, perms[i], noise, cfg.Images, cfg.ImageBytes)
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
// owns a dictionary of SlabSize-byte texture slabs; every image in every
// version of the page is a sequence of its slabs (plus occasional fresh
// ones after mutation). This models the paper's medical workload — four 3D views of
// the same volume share large displaced regions of identical data — and is
// what lets content-defined chunking (Vary-sized blocking) dedupe content
// that fixed-offset blocking (Bitmap) cannot.
const SlabSize = 8192

// slabPoolLen is the number of distinct slabs in a page's dictionary.
const slabPoolLen = 48

// genSlab fills s, whole 256-byte tiles, with one image-like texture slab:
// smooth gradient tiles with light noise, giving moderate gzip
// compressibility like the DICOM/BMP images the paper's Bitmap protocol
// targets. It draws what rng.Intn(256) per tile and rng.Intn(3) per noise
// byte (Intn(256) if noiseEvery is 1) would, without Intn's divisions.
func genSlab(rng *rand.Rand, noiseEvery int, s []byte) {
	if noiseEvery < 1 {
		noiseEvery = 2
	}
	const tile = 256
	const max3 = 1<<31 - 1 - (1<<31)%3           // rand.Int31n(3) redraws above this
	for t, next := 0, 0; t < len(s); t += tile { // next: the next noise position
		base := byte(rng.Int63() >> 32) // rand.Intn(256)
		for i := 0; i < tile; i += 8 {  // the gradient steps every 8 bytes
			binary.LittleEndian.PutUint64(s[t+i:], uint64(base+byte(i/8))*0x0101010101010101)
		}
		for ; next < t+tile; next += noiseEvery { // sensor noise controls compressibility
			v := uint32(rng.Int63() >> 32)
			if noiseEvery == 1 {
				s[next] = byte(v) // fully random: incompressible
				continue
			}
			for v > max3 {
				v = uint32(rng.Int63() >> 32)
			}
			s[next] += byte(v%3) - 1
		}
	}
}

// genImages builds the page's images from slab placements, each image's
// last one truncated: placement n holds slab perm[n%len(perm)] of the
// dictionary seeded by seed, so a fresh page repeats no region until the
// dictionary runs out (shared view content is what mutation adds). Slabs
// are drawn in index order up to the highest used, each into its first
// placement if whole, else into scratch, then copied to its others.
func genImages(seed int64, perm []int, noiseEvery, count, size int) [][]byte {
	images := make([][]byte, count)
	for j := range images {
		images[j] = make([]byte, size)
	}
	per := (size + SlabSize - 1) / SlabSize // placements per image
	total := count * per
	place := func(n int) []byte {
		start := n % per * SlabSize
		return images[n/per][start:min(start+SlabSize, size)]
	}
	if total == 0 {
		return images
	}
	rng, scratch := NewRand(seed), make([]byte, SlabSize)
	for k := range slices.Max(perm[:min(total, len(perm))]) + 1 {
		n := slices.Index(perm, k) // slab k's first placement
		slab := scratch
		if n < total && len(place(n)) == SlabSize {
			slab = place(n)
		}
		genSlab(rng, noiseEvery, slab)
		for ; n < total; n += len(perm) {
			copy(place(n), slab)
		}
	}
	return images
}
