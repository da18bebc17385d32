package conformance

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fractal/internal/inp"
)

// frameHeaderLen is the INP frame header size. The spec re-declares the
// wire constants it mutates instead of reaching into package inp: the
// whole point of an executable spec is an independent statement of the
// format, so a silent change to the header layout fails conformance
// instead of being mirrored invisibly.
const frameHeaderLen = 16

const (
	offVersion = 4  // header byte carrying the protocol version
	offType    = 5  // header byte carrying the message type
	offSeq     = 8  // big-endian uint32 sequence number
	offLen     = 12 // big-endian uint32 body length

	specVersion = 2 // the one header version a conforming server accepts
)

// renderFrame encodes one spec-level frame to wire bytes through the real
// frame writer, so the bytes the model mutates are identical to the bytes
// the system under test stages for the same header and body.
func renderFrame(h inp.Header, body interface{}) ([]byte, error) {
	var buf bytes.Buffer
	fw := inp.NewFrameWriter(&buf)
	if err := fw.WriteMessage(h, body); err != nil {
		return nil, err
	}
	if err := fw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// splitFrames cuts a batch of whole frames out of one flushed write. The
// driver's rewriting conn is never a *net.TCPConn, so the frame writer
// coalesces every batch into a single Write of complete frames; a short
// or misaligned batch is a harness bug, not a protocol outcome.
func splitFrames(p []byte) ([][]byte, error) {
	var frames [][]byte
	for off := 0; off < len(p); {
		if len(p)-off < frameHeaderLen {
			return nil, fmt.Errorf("conformance: %d stray bytes after %d frames", len(p)-off, len(frames))
		}
		n := int(binary.BigEndian.Uint32(p[off+offLen : off+offLen+4]))
		end := off + frameHeaderLen + n
		if end > len(p) {
			return nil, fmt.Errorf("conformance: frame %d claims %d body bytes, %d available", len(frames), n, len(p)-off-frameHeaderLen)
		}
		frames = append(frames, append([]byte(nil), p[off:end]...))
		off = end
	}
	return frames, nil
}

// applyOutMuts rewrites one step's staged frames according to its
// outbound mutations and reports whether the connection must be
// half-closed after the write (truncation). hist is every post-mutation
// frame written earlier on the connection, the replay pool. Both the
// model and the driver run this same code over byte-identical inputs, so
// a mutated trace means the same corrupted byte stream on both sides.
func applyOutMuts(muts []Mutation, frames [][]byte, hist [][]byte) (out [][]byte, closeAfter bool) {
	out = make([][]byte, len(frames))
	for i, f := range frames {
		out[i] = append([]byte(nil), f...)
	}
	for _, m := range muts {
		switch m.Kind {
		case MutDupFrame:
			if len(out) == 0 {
				continue
			}
			i := m.Frame % len(out)
			dup := append([]byte(nil), out[i]...)
			out = append(out[:i+1], append([][]byte{dup}, out[i+1:]...)...)
		case MutReplay:
			pool := make([][]byte, 0, len(hist)+len(out))
			pool = append(pool, hist...)
			pool = append(pool, out...)
			if len(pool) == 0 {
				continue
			}
			src := pool[int(m.Sel)%len(pool)]
			out = append(out, append([]byte(nil), src...))
		case MutSeqDelta:
			if len(out) == 0 {
				continue
			}
			f := out[m.Frame%len(out)]
			seq := binary.BigEndian.Uint32(f[offSeq : offSeq+4])
			binary.BigEndian.PutUint32(f[offSeq:offSeq+4], uint32(int64(seq)+int64(m.Delta)))
		case MutWrongType:
			if len(out) == 0 {
				continue
			}
			out[m.Frame%len(out)][offType] = m.Type
		case MutVersion1:
			if len(out) == 0 {
				continue
			}
			out[m.Frame%len(out)][offVersion] = 1
		case MutTrailing:
			if len(out) == 0 {
				continue
			}
			f := out[m.Frame%len(out)]
			n := 1 + int(m.Sel)%16
			for j := 0; j < n; j++ {
				f = append(f, 0xFF)
			}
			bodyLen := binary.BigEndian.Uint32(f[offLen : offLen+4])
			binary.BigEndian.PutUint32(f[offLen:offLen+4], bodyLen+uint32(n))
			out[m.Frame%len(out)] = f
		case MutTruncate:
			if len(out) == 0 {
				continue
			}
			last := out[len(out)-1]
			if len(last) < 2 {
				continue
			}
			cut := 1 + int(m.Sel)%(len(last)-1)
			out[len(out)-1] = last[:len(last)-cut]
			closeAfter = true
		}
	}
	return out, closeAfter
}

// hasInbound returns the step's first inbound mutation, if any.
func hasInbound(s Step) (Mutation, bool) {
	for _, m := range s.Muts {
		switch m.Kind {
		case MutInDupReply, MutInDelay:
			return m, true
		}
	}
	return Mutation{}, false
}
