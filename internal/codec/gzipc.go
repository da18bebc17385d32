package codec

import (
	"bytes"
	"compress/gzip"
	"fmt"

	"fractal/internal/arena"
)

// Gzip compresses content at the server and decompresses at the client
// using the LZ77-based gzip format, as in the paper's case study.
type Gzip struct {
	level int
}

// NewGzip returns the Gzip protocol at the default compression level.
func NewGzip() *Gzip { return &Gzip{level: gzip.DefaultCompression} }

// NewGzipLevel returns a Gzip protocol at a specific compression level,
// used by the ablation benchmarks.
func NewGzipLevel(level int) (*Gzip, error) {
	if level < gzip.HuffmanOnly || level > gzip.BestCompression {
		return nil, fmt.Errorf("codec: gzip level %d out of range", level)
	}
	return &Gzip{level: level}, nil
}

// Name implements Codec.
func (*Gzip) Name() string { return NameGzip }

// Cost implements Costed. Calibrated on the 500 MHz reference CPU so the
// case study reproduces the paper's per-environment protocol selections;
// see DESIGN.md ("Calibration").
func (*Gzip) Cost() CostModel {
	return CostModel{ServerNsPerByte: 289, ClientNsPerByte: 289, ServerFixed: 200 * 1000, ClientFixed: 100 * 1000}
}

// BaseIndependent implements the marker: Encode never reads old.
func (*Gzip) BaseIndependent() {}

// Encode implements Codec: gzip-compress cur; old is ignored. The
// compressor is borrowed from the arena's per-level pool and the stream is
// staged in an arena buffer (see VaryBlock.Encode), so a call allocates the
// exact-size output and little else.
func (g *Gzip) Encode(old, cur []byte) ([]byte, error) {
	var buf arena.Buffer
	defer buf.Release()
	w, err := arena.AcquireGzipWriter(&buf, g.level)
	if err != nil {
		return nil, fmt.Errorf("codec: gzip writer: %w", err)
	}
	defer w.Release()
	if _, err := w.Write(cur); err != nil {
		return nil, fmt.Errorf("codec: gzip compress: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("codec: gzip flush: %w", err)
	}
	return bytes.Clone(buf.Bytes()), nil
}

// Decode implements Codec: it inflates payload in one pass, straight into
// the output (see inflate).
func (g *Gzip) Decode(old, payload []byte) ([]byte, error) {
	out, err := inflate(payload)
	if err != nil {
		return nil, fmt.Errorf("codec: gzip decompress: %w", err)
	}
	return out, nil
}
