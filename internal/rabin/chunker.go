package rabin

import "fmt"

// Chunk is one content-defined region of an input buffer.
type Chunk struct {
	Offset int
	Length int
	Cut    uint64 // fingerprint value at the breakpoint (0 for forced cuts)
}

// ChunkerConfig controls content-defined splitting. Breakpoints are
// declared after at least MinSize bytes wherever the rolling fingerprint of
// the previous Window bytes satisfies fp & Mask == Magic; a chunk is force-
// cut at MaxSize. The paper follows LBFS with a 48-byte window.
type ChunkerConfig struct {
	Pol     Pol
	Window  int
	MinSize int
	MaxSize int
	Mask    uint64
	Magic   uint64
}

// DefaultChunkerConfig mirrors LBFS at a reduced average chunk size suited
// to ~32 KB images: 48-byte window, ~768 B expected chunks (9-bit mask on
// top of a 256 B minimum), 4 KB maximum.
func DefaultChunkerConfig() ChunkerConfig {
	return ChunkerConfig{
		Pol:     DefaultPol,
		Window:  48,
		MinSize: 256,
		MaxSize: 4 * 1024,
		Mask:    (1 << 9) - 1,
		Magic:   0x78,
	}
}

// Validate reports whether the configuration is usable.
func (c ChunkerConfig) Validate() error {
	if c.Window < 2 || c.Window > 256 {
		return fmt.Errorf("rabin: window %d out of range [2,256]", c.Window)
	}
	if c.MinSize < c.Window {
		return fmt.Errorf("rabin: MinSize %d smaller than window %d", c.MinSize, c.Window)
	}
	if c.MaxSize < c.MinSize {
		return fmt.Errorf("rabin: MaxSize %d smaller than MinSize %d", c.MaxSize, c.MinSize)
	}
	if c.Mask == 0 {
		return fmt.Errorf("rabin: zero mask would cut at every byte")
	}
	if c.Magic&^c.Mask != 0 {
		return fmt.Errorf("rabin: magic %#x has bits outside mask %#x", c.Magic, c.Mask)
	}
	return nil
}

// Chunker splits byte buffers into content-defined chunks. It is immutable
// after construction and safe for concurrent use; Split keeps all rolling
// state in locals, so concurrent calls share nothing but the tables.
type Chunker struct {
	cfg ChunkerConfig
	tab *Table
}

// NewChunker builds a chunker for the configuration.
func NewChunker(cfg ChunkerConfig) (*Chunker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tab, err := NewTable(cfg.Pol, cfg.Window)
	if err != nil {
		return nil, err
	}
	return &Chunker{cfg: cfg, tab: tab}, nil
}

// Config returns the chunker's configuration.
func (c *Chunker) Config() ChunkerConfig { return c.cfg }

// Split divides data into chunks. The concatenation of all chunks exactly
// reconstructs data; an empty input yields no chunks. Boundaries are a
// function of local content only (plus the min/max constraints), which is
// the property that lets insertions shift data without invalidating all
// following chunks.
func (c *Chunker) Split(data []byte) []Chunk {
	if len(data) == 0 {
		return nil
	}
	// Expected chunk size is MinSize plus the mask's mean waiting time, so
	// the one append target is usually sized right on the first try.
	expected := c.cfg.MinSize + int(c.cfg.Mask)/2 + 1
	chunks := make([]Chunk, 0, len(data)/expected+1)
	start := 0
	for start < len(data) {
		limit := start + c.cfg.MaxSize
		if limit > len(data) {
			limit = len(data)
		}
		n, cut := c.findCut(data[start:limit])
		chunks = append(chunks, Chunk{Offset: start, Length: n, Cut: cut})
		start += n
	}
	return chunks
}

// findCut locates the first content-defined boundary in window (which is
// already bounded by MaxSize), returning the chunk length and the
// fingerprint at the cut (0 for forced cuts).
//
// This is the hot inner loop of every vary-sized blocking request, so it
// rolls in bulk over the slice rather than byte by byte through a ring
// buffer: no boundary may be declared before MinSize, and the fingerprint
// at any position depends only on the Window bytes ending there, so the
// first MinSize-Window bytes of the chunk can be skipped outright (the LBFS
// min-size optimization). The ring buffer disappears too — the expiring
// byte is just window[i-Window]. Fingerprints are bit-identical to rolling
// every byte through the per-byte reference digest kept in bulk_test.go,
// which TestFindCutMatchesDigestRoll locks in.
func (c *Chunker) findCut(window []byte) (int, uint64) {
	min := c.cfg.MinSize
	if len(window) < min {
		return len(window), 0
	}
	t := c.tab
	deg := t.deg
	mask, magic := c.cfg.Mask, c.cfg.Magic
	// Prime the fingerprint with the Window bytes ending at min-1. A fresh
	// digest's window is all zeros and Table.out[0] == 0, so expiry during
	// priming is a no-op and plain appends suffice.
	var fp uint64
	for _, b := range window[min-c.cfg.Window : min] {
		fp = fp<<8 | uint64(b)
		fp ^= t.mod[fp>>deg]
	}
	if fp&mask == magic {
		return min, fp
	}
	w := c.cfg.Window
	for i := min; i < len(window); i++ {
		fp ^= t.out[window[i-w]]
		fp = fp<<8 | uint64(window[i])
		fp ^= t.mod[fp>>deg]
		if fp&mask == magic {
			return i + 1, fp
		}
	}
	return len(window), 0
}
