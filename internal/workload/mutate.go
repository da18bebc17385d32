package workload

import (
	"bytes"
	"fmt"
	"math/rand"

	"fractal/internal/syncx"
)

// Mutation controls how a page evolves between versions. The three knobs
// map to the behaviours that discriminate the case-study protocols:
//
//   - TextEditFrac: fraction of text words replaced in place. In-place
//     changes are friendly to both differencing protocols.
//   - TextInsertFrac: fraction of text positions receiving insertions.
//     Insertions shift all following bytes, which defeats fixed-size
//     blocking (Bitmap) but not content-defined chunking (Vary-sized
//     blocking) — the LBFS property the paper cites.
//   - ImageRegionFrac: fraction of image slab positions changed between
//     versions. A changed position either receives the *content of another
//     slab position in the same page* — data that still exists in the old
//     version but at a different offset, which Vary-sized blocking dedupes
//     and Bitmap must retransmit — or, with probability ImageFreshFrac, a
//     genuinely new slab that every differencing protocol must send. This
//     models the paper's medical workload: successive 3D views of one
//     volume share large displaced regions.
type Mutation struct {
	TextEditFrac    float64
	TextInsertFrac  float64
	ImageRegionFrac float64
	ImageFreshFrac  float64
	Seed            int64
}

// DefaultMutation models a between-visit update of a medical study: a few
// text edits, sparse insertions, ~15% of image slabs changed with a third
// of those being genuinely new content.
func DefaultMutation(seed int64) Mutation {
	return Mutation{
		TextEditFrac:    0.05,
		TextInsertFrac:  0.01,
		ImageRegionFrac: 0.17,
		ImageFreshFrac:  0.30,
		Seed:            seed,
	}
}

// Validate reports whether the mutation rates are usable.
func (m Mutation) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TextEditFrac", m.TextEditFrac},
		{"TextInsertFrac", m.TextInsertFrac},
		{"ImageRegionFrac", m.ImageRegionFrac},
		{"ImageFreshFrac", m.ImageFreshFrac},
	} {
		if f.v < 0 || f.v > 1 || f.v != f.v {
			return fmt.Errorf("workload: %s = %v out of [0,1]", f.name, f.v)
		}
	}
	return nil
}

// Mutate returns a new version of the page. The original is not modified.
func Mutate(p *Page, m Mutation) (*Page, error) {
	return MutateRand(NewRand(m.Seed^int64(len(p.Text))), p, m)
}

// MutateRand is Mutate drawing every random decision from an explicit
// seeded generator.
func MutateRand(rng *rand.Rand, p *Page, m Mutation) (*Page, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	q := p.Clone()
	q.Version = p.Version + 1
	q.Text = mutateText(rng, q.Text, m.TextEditFrac, m.TextInsertFrac)
	mutateImages(rng, p.Images, q.Images, m.ImageRegionFrac, m.ImageFreshFrac, p.NoiseEvery)
	return q, nil
}

// MutateCorpus evolves every page of the corpus into its next version.
// Each page draws from its own seeded stream, so the pages are mutated on
// the syncx.Each workers and the result does not depend on their number.
func MutateCorpus(c *Corpus, m Mutation) (*Corpus, error) {
	out := &Corpus{Pages: make([]*Page, len(c.Pages))}
	err := syncx.Each(len(c.Pages), func(i int) error {
		p := c.Pages[i]
		pm := m
		pm.Seed = m.Seed + int64(i)*7919 // distinct per-page stream
		q, err := Mutate(p, pm)
		if err != nil {
			return fmt.Errorf("workload: mutating %s: %w", p.ID, err)
		}
		out.Pages[i] = q
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func mutateText(rng *rand.Rand, text []byte, editFrac, insertFrac float64) []byte {
	toks := bytes.Split(text, []byte(" "))
	var out [][]byte
	for _, tok := range toks {
		t := tok
		if len(t) > 0 && rng.Float64() < editFrac {
			t = []byte(words[rng.Intn(len(words))])
		}
		out = append(out, t)
		if rng.Float64() < insertFrac {
			out = append(out, []byte(words[rng.Intn(len(words))]))
		}
	}
	return bytes.Join(out, []byte(" "))
}

// slabPos addresses one slab-aligned region of one image.
type slabPos struct {
	img, start, end int
}

// slabPositions enumerates the slab-aligned regions of a set of images.
func slabPositions(images [][]byte) []slabPos {
	var ps []slabPos
	for i, img := range images {
		for start := 0; start < len(img); start += SlabSize {
			end := start + SlabSize
			if end > len(img) {
				end = len(img)
			}
			ps = append(ps, slabPos{img: i, start: start, end: end})
		}
	}
	return ps
}

// mutateImages rewrites whole slab positions of dst in place: a changed
// position either receives the content of another position of the OLD
// images (moved view data, dedupable by content-defined chunking) or, with
// probability freshFrac, a brand-new slab.
func mutateImages(rng *rand.Rand, old, dst [][]byte, regionFrac, freshFrac float64, noiseEvery int) {
	positions := slabPositions(old)
	if len(positions) == 0 {
		return
	}
	fresh := make([]byte, SlabSize)
	for _, p := range positions {
		if rng.Float64() >= regionFrac {
			continue
		}
		slab := fresh
		if rng.Float64() < freshFrac {
			genSlab(rng, noiseEvery, fresh)
		} else {
			src := positions[rng.Intn(len(positions))]
			slab = old[src.img][src.start:src.end]
		}
		copy(dst[p.img][p.start:p.end], slab)
	}
}
