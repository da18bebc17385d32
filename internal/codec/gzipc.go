package codec

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
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

// Encode implements Codec: gzip-compress cur; old is ignored.
func (g *Gzip) Encode(old, cur []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, g.level)
	if err != nil {
		return nil, fmt.Errorf("codec: gzip writer: %w", err)
	}
	if _, err := w.Write(cur); err != nil {
		return nil, fmt.Errorf("codec: gzip compress: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("codec: gzip flush: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode implements Codec. The gzip trailer's ISIZE field (the content
// length mod 2^32) sizes the output once instead of growing it by doubling.
// It is an unvalidated hint, capped like every other wire length here; the
// stream is still read to EOF, so a trailer that lies or belongs to the
// last of several members costs a regrow or some slack, never correctness.
func (g *Gzip) Decode(old, payload []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("codec: gzip payload corrupt: %w", err)
	}
	defer r.Close()
	reserve := uint32(0)
	if len(payload) >= 4 {
		reserve = binary.LittleEndian.Uint32(payload[len(payload)-4:])
	}
	if reserve > maxDecodeReserve {
		reserve = maxDecodeReserve
	}
	// MinRead of slack lets ReadFrom see EOF without growing a full buffer.
	buf := bytes.NewBuffer(make([]byte, 0, int(reserve)+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("codec: gzip decompress: %w", err)
	}
	return buf.Bytes(), nil
}
