package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"fractal/internal/arena"
	"fractal/internal/rabin"
)

// varyMagic identifies a Vary-sized blocking wire payload.
var varyMagic = []byte("FVB1")

// Wire op tags.
const (
	varyOpRef = 0 // copy old chunk by index
	varyOpLit = 1 // literal bytes follow
)

// maxDecodeReserve caps the output capacity reserved up front from an
// unvalidated header length: a hostile curLen (up to the 1<<32 sanity
// bound) must not force a multi-GB allocation before a single op has been
// checked. Larger outputs grow naturally as ops prove themselves.
const maxDecodeReserve = 1 << 20

// VaryBlock is the LBFS-style vary-sized blocking protocol [34]: files are
// divided into chunks demarcated where the Rabin fingerprint of the
// previous 48 bytes matches a specific value, so boundaries follow content
// even after insertions and deletions. The server chunks both versions,
// indexes the old chunks by SHA-1 digest, and sends each new chunk either
// as a reference to an old chunk (wherever it occurs) or as a literal. The
// client re-chunks its old copy with the identical parameters — which
// travel inside the PAD — and resolves the references.
//
// VaryBlock is stateless and safe for concurrent use. Optionally a shared
// ChunkCache (UseChunkCache, set before concurrent use begins) memoizes
// the per-version chunk list + digest index for Encode, so the base
// version of a page is chunked and digested once per version instead of
// once per request; payloads are byte-identical either way. What a hit
// still pays is the cache key, one whole-version SHA-1 per side — about a
// quarter of the stateless encode on a 135 KB page. Decode never
// consults the cache: it needs the old version's chunk boundaries only, and
// a client either advances past a held version or cycles through more of
// them than a small cache holds, so a lookup would add a whole-version
// SHA-1 and an index build that do not pay back (DESIGN.md, "Ablation
// receipts").
type VaryBlock struct {
	chunker *rabin.Chunker
	conf    string      // cache-key descriptor of the chunker config
	cache   *ChunkCache // Encode only; nil = stateless
}

// NewVaryBlock returns the protocol with the default LBFS-like chunking
// parameters (48-byte window, ~2 KB expected chunks).
func NewVaryBlock() (*VaryBlock, error) {
	return NewVaryBlockConfig(rabin.DefaultChunkerConfig())
}

// NewVaryBlockConfig returns the protocol with explicit chunking
// parameters; both endpoints must use the same configuration.
func NewVaryBlockConfig(cfg rabin.ChunkerConfig) (*VaryBlock, error) {
	ch, err := rabin.NewChunker(cfg)
	if err != nil {
		return nil, fmt.Errorf("codec: varyblock: %w", err)
	}
	conf := fmt.Sprintf("vary|%x|%d|%d|%d|%x|%x",
		uint64(cfg.Pol), cfg.Window, cfg.MinSize, cfg.MaxSize, cfg.Mask, cfg.Magic)
	return &VaryBlock{chunker: ch, conf: conf}, nil
}

// Name implements Codec.
func (*VaryBlock) Name() string { return NameVaryBlock }

// ChunkerConfig returns the chunking parameters in use.
func (v *VaryBlock) ChunkerConfig() rabin.ChunkerConfig { return v.chunker.Config() }

// UseChunkCache implements ChunkCacheUser. It must be called before the
// codec is used concurrently.
func (v *VaryBlock) UseChunkCache(c *ChunkCache) { v.cache = c }

// Cost implements Costed. The dominant server-side term reproduces the
// paper's observation that Vary-sized blocking "has huge server side
// computing time, which disqualifies it ... even if it generates the least
// transfer bytes"; see DESIGN.md ("Calibration"). The constants describe
// the paper's reference stateless encoder and deliberately ignore the
// chunk-index cache, so protocol selection and every simulated figure are
// unaffected by runtime cache state.
func (*VaryBlock) Cost() CostModel {
	return CostModel{ServerNsPerByte: 18800, ClientNsPerByte: 2097, ServerFixed: 500 * 1000, ClientFixed: 300 * 1000}
}

// indexOf returns the chunk index of data, through the shared cache when
// one is attached.
func (v *VaryBlock) indexOf(data []byte) *ChunkIndex {
	if v.cache == nil || len(data) == 0 {
		return buildChunkIndex(v.chunker, data)
	}
	return v.cache.getOrBuild(v.conf, v.chunker, data)
}

// Encode implements Codec. Payload layout:
//
//	"FVB1" | uvarint len(cur) | uvarint len(old) | uvarint nops |
//	ops: tag 0 => uvarint oldChunkIndex
//	     tag 1 => uvarint litLen | litLen bytes
//
//fractal:hotpath the delta-encode inner loop dominates serving cost
func (v *VaryBlock) Encode(old, cur []byte) ([]byte, error) {
	oldIdx := v.indexOf(old)
	curIdx := v.indexOf(cur)
	// The op assembly buffer comes from the unified arena: its size classes
	// replace the codec's old private pool, and the arena's retention policy
	// (oversized backings fall through to the allocator) replaces the old
	// per-pool cap.
	var ops arena.Buffer
	defer ops.Release()
	var tmp [binary.MaxVarintLen64]byte
	for i, c := range curIdx.Chunks {
		if j, ok := oldIdx.Lookup(curIdx.Sums[i]); ok && oldIdx.Chunks[j].Length == c.Length {
			ops.WriteByte(varyOpRef)
			ops.Write(tmp[:binary.PutUvarint(tmp[:], uint64(j))])
		} else {
			data := cur[c.Offset : c.Offset+c.Length]
			ops.WriteByte(varyOpLit)
			ops.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(data)))])
			ops.Write(data)
		}
	}
	out := make([]byte, 0, len(varyMagic)+3*binary.MaxVarintLen64+ops.Len())
	out = append(out, varyMagic...)
	for _, u := range []uint64{uint64(len(cur)), uint64(len(old)), uint64(len(curIdx.Chunks))} {
		out = append(out, tmp[:binary.PutUvarint(tmp[:], u)]...)
	}
	out = append(out, ops.Bytes()...)
	return out, nil
}

// Decode implements Codec. The receiver re-chunks its old version with the
// same parameters and resolves the references; chunk boundaries are all it
// needs, so no digest is computed and the chunk cache is not touched.
func (v *VaryBlock) Decode(old, payload []byte) ([]byte, error) {
	r := bytes.NewReader(payload)
	magic := make([]byte, len(varyMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, varyMagic) {
		return nil, fmt.Errorf("codec: varyblock payload: bad magic")
	}
	readU := func(what string) (uint64, error) {
		u, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("codec: varyblock payload: reading %s: %w", what, err)
		}
		return u, nil
	}
	curLen, err := readU("content length")
	if err != nil {
		return nil, err
	}
	if curLen > 1<<32 {
		return nil, fmt.Errorf("codec: varyblock payload: content length %d unreasonable", curLen)
	}
	oldLen, err := readU("old length")
	if err != nil {
		return nil, err
	}
	if int(oldLen) != len(old) {
		return nil, fmt.Errorf("codec: varyblock payload encoded against %d-byte old version, receiver holds %d bytes", oldLen, len(old))
	}
	nops, err := readU("op count")
	if err != nil {
		return nil, err
	}
	if nops > curLen+1 {
		return nil, fmt.Errorf("codec: varyblock payload: %d ops for %d bytes is impossible", nops, curLen)
	}
	oldChunks := v.chunker.Split(old)
	reserve := curLen
	if reserve > maxDecodeReserve {
		reserve = maxDecodeReserve
	}
	out := make([]byte, 0, reserve)
	for op := uint64(0); op < nops; op++ {
		tag, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("codec: varyblock payload: truncated at op %d: %w", op, err)
		}
		switch tag {
		case varyOpRef:
			idx, err := readU("chunk index")
			if err != nil {
				return nil, err
			}
			if idx >= uint64(len(oldChunks)) {
				return nil, fmt.Errorf("codec: varyblock payload references old chunk %d of %d", idx, len(oldChunks))
			}
			c := oldChunks[idx]
			out = append(out, old[c.Offset:c.Offset+c.Length]...)
		case varyOpLit:
			n, err := readU("literal length")
			if err != nil {
				return nil, err
			}
			if n > uint64(r.Len()) {
				return nil, fmt.Errorf("codec: varyblock payload: literal of %d bytes exceeds remaining %d", n, r.Len())
			}
			// Read the literal straight into the output's free space — no
			// per-op staging slice.
			off := len(out)
			out = slices.Grow(out, int(n))[:off+int(n)]
			if _, err := io.ReadFull(r, out[off:]); err != nil {
				return nil, fmt.Errorf("codec: varyblock payload: truncated literal: %w", err)
			}
		default:
			return nil, fmt.Errorf("codec: varyblock payload: unknown op tag %d", tag)
		}
	}
	if uint64(len(out)) != curLen {
		return nil, fmt.Errorf("codec: varyblock payload reconstructed %d bytes, header says %d", len(out), curLen)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("codec: varyblock payload has %d trailing bytes", r.Len())
	}
	return out, nil
}
