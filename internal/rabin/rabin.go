// Package rabin implements Rabin fingerprinting by random polynomials
// (Rabin, 1981) with a rolling window, and content-defined chunking in the
// style of LBFS: chunk boundaries are declared where the fingerprint of the
// previous window bytes matches a specific value under a bit mask, so that
// boundaries depend on content, not position. This is the mechanism behind
// the paper's Vary-sized blocking protocol (Section 4.1).
package rabin

import (
	"fmt"
	"math/bits"
	"sync"
)

// Pol is a polynomial over GF(2), represented by its coefficient bits. The
// polynomial must be irreducible for good fingerprint behaviour.
type Pol uint64

// DefaultPol is a degree-53 irreducible polynomial widely used for
// content-defined chunking. Degree 53 keeps a byte-shifted fingerprint
// within 64 bits.
const DefaultPol Pol = 0x3DA3358B4DC173

// Deg returns the degree of the polynomial, or -1 for the zero polynomial.
func (p Pol) Deg() int { return bits.Len64(uint64(p)) - 1 }

// polyMod returns a mod p over GF(2).
func polyMod(a uint64, p Pol) uint64 {
	dp := p.Deg()
	for da := bits.Len64(a) - 1; da >= dp; da = bits.Len64(a) - 1 {
		a ^= uint64(p) << (da - dp)
	}
	return a
}

// Table holds the precomputed byte-append and byte-expire tables for one
// (polynomial, window size) pair. Tables are immutable after construction
// and safe for concurrent use.
type Table struct {
	pol    Pol
	window int
	deg    int
	mod    [256]uint64 // reduction of the 8 bits shifted past the degree
	out    [256]uint64 // contribution of a byte leaving the window
}

// tables memoizes NewTable: a table is a pure function of its
// (polynomial, window) pair and immutable, so every chunker of one
// configuration shares one. The pairs come from chunker configurations in
// code — PAD params set only the cut sizes and mask — so the map holds a
// handful of entries.
var tables sync.Map // [2]int{pol, window} -> *Table

// NewTable returns the tables for the polynomial and window size,
// precomputing them on first use.
func NewTable(pol Pol, window int) (*Table, error) {
	if pol.Deg() < 16 || pol.Deg() > 56 {
		return nil, fmt.Errorf("rabin: polynomial degree %d out of supported range [16,56]", pol.Deg())
	}
	if window < 2 || window > 256 {
		return nil, fmt.Errorf("rabin: window size %d out of range [2,256]", window)
	}
	key := [2]int{int(pol), window}
	if t, ok := tables.Load(key); ok {
		return t.(*Table), nil
	}
	t := &Table{pol: pol, window: window, deg: pol.Deg()}
	for b := 0; b < 256; b++ {
		// mod[b]: for a value v with top byte b above the degree,
		// v mod p == v ^ mod[b] with the top bits cleared.
		top := uint64(b) << t.deg
		t.mod[b] = polyMod(top, pol) | top
	}
	// out[b]: fingerprint contribution of the oldest in-window byte, i.e.
	// b * x^(8*(window-1)) mod p, so it can be expired by XOR just before
	// the window shifts. Multiplying by x^8 mod p is one mod[] table step,
	// and the map b -> out[b] is linear over GF(2), so the eight single-bit
	// values are shifted through the window and every other entry is the
	// XOR of the entries for its lowest set bit and for the rest.
	for i := 0; i < 8; i++ {
		fp := uint64(1) << i
		for j := 0; j < window-1; j++ {
			fp <<= 8
			fp ^= t.mod[fp>>t.deg]
		}
		t.out[1<<i] = fp
	}
	for b := 1; b < 256; b++ {
		low := b & -b
		t.out[b] = t.out[low] ^ t.out[b^low]
	}
	shared, _ := tables.LoadOrStore(key, t)
	return shared.(*Table), nil
}

// Window returns the window size the table was built for.
func (t *Table) Window() int { return t.window }
