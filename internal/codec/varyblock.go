package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fractal/internal/arena"
	"fractal/internal/rabin"
	"fractal/internal/wire"
)

// varyMagic identifies a Vary-sized blocking wire payload.
var varyMagic = []byte("FVB1")

// Wire op tags.
const (
	varyOpRef = 0 // copy old chunk by index
	varyOpLit = 1 // literal bytes follow
)

// VaryBlock is the LBFS-style vary-sized blocking protocol [34]: files are
// divided into chunks demarcated where the Rabin fingerprint of the
// previous 48 bytes matches a specific value, so boundaries follow content
// even after insertions and deletions. The server chunks both versions,
// indexes the old chunks by SHA-1 digest, and sends each new chunk either
// as a reference to an old chunk (wherever it occurs) or as a literal. The
// client re-chunks its old copy with the identical parameters — which
// travel inside the PAD — and resolves the references.
//
// VaryBlock is safe for concurrent use. Optionally a shared ChunkCache
// (UseChunkCache, set before concurrent use begins) memoizes the
// per-version chunk list + digest index for Encode, so the base version of
// a page is chunked and digested once per version instead of once per
// request; payloads are byte-identical either way. What a hit still pays
// is the cache key, one whole-version SHA-1 per side — about a quarter of
// the stateless encode on a 135 KB page. Decode never consults that
// cache: it needs only the held version's chunk boundaries, which
// DecodeHeld memoizes on the receiver's Held — keyed by the held entry's
// identity, not by a digest of its bytes, and dropped with it — so a
// client re-requesting a version it still holds splits it once (DESIGN.md,
// "Ablation receipts").
type VaryBlock struct {
	chunker *rabin.Chunker
	cache   *ChunkCache // Encode only; nil = stateless
	conf    string      // the cache's key descriptor of the chunker config, set with it
}

// NewVaryBlock returns the protocol with the default LBFS-like chunking
// parameters (rabin.DefaultChunkerConfig: 48-byte window, ≈ 768 B
// expected chunks).
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
	return &VaryBlock{chunker: ch}, nil
}

// Name implements Codec.
func (*VaryBlock) Name() string { return NameVaryBlock }

// UseChunkCache implements ChunkCacheUser. It must be called before
// Encode is used concurrently; Decode reads neither the cache nor its key
// descriptor, which a codec that never gets a cache never renders.
func (v *VaryBlock) UseChunkCache(c *ChunkCache) {
	cfg := v.chunker.Config()
	v.cache, v.conf = c, fmt.Sprintf("vary|%x|%d|%d|%d|%x|%x",
		uint64(cfg.Pol), cfg.Window, cfg.MinSize, cfg.MaxSize, cfg.Mask, cfg.Magic)
}

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
// needs, so no digest is computed and the chunk cache is not touched. A
// payload that rebuilds old, or a prefix of it, decodes to old itself (see
// output).
func (v *VaryBlock) Decode(old, payload []byte) ([]byte, error) {
	return v.decode(old, nil, payload)
}

// DecodeHeld is Decode against h.Data that splits it only when h holds no
// split made under v's chunker configuration. Its bytes and verdict are
// Decode's; a nil h is an empty old version.
func (v *VaryBlock) DecodeHeld(h *Held, payload []byte) ([]byte, error) {
	if h == nil {
		return v.decode(nil, nil, payload)
	}
	return v.decode(h.Data, h, payload)
}

// decode is the one decoder, h nil or holding old. Every count in the
// payload is read through wire.Reader, which bounds it by the bytes
// actually present before anything is sized from it.
func (v *VaryBlock) decode(old []byte, h *Held, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload, true)
	if !bytes.Equal(r.Take(uint64(len(varyMagic))), varyMagic) {
		return nil, fmt.Errorf("codec: varyblock payload: bad magic")
	}
	curLen, oldLen, nops := r.Uvarint(), r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("codec: varyblock payload: reading header: %w", err)
	}
	if curLen > 1<<32 {
		return nil, fmt.Errorf("codec: varyblock payload: content length %d unreasonable", curLen)
	}
	if oldLen != uint64(len(old)) {
		return nil, fmt.Errorf("codec: varyblock payload encoded against %d-byte old version, receiver holds %d bytes", oldLen, len(old))
	}
	if nops > curLen+1 {
		return nil, fmt.Errorf("codec: varyblock payload: %d ops for %d bytes is impossible", nops, curLen)
	}
	oldChunks := h.chunks(v.chunker, old)
	out := newOutput(old, curLen)
	for op := uint64(0); op < nops; op++ {
		// Both ops are a tag byte and one uvarint: a chunk index or a
		// literal length.
		tag, n := r.Take(1), r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("codec: varyblock payload: truncated at op %d: %w", op, err)
		}
		switch tag[0] {
		case varyOpRef:
			if n >= uint64(len(oldChunks)) {
				return nil, fmt.Errorf("codec: varyblock payload references old chunk %d of %d", n, len(oldChunks))
			}
			c := oldChunks[n]
			out.add(old[c.Offset : c.Offset+c.Length])
		case varyOpLit:
			lit := r.Take(n)
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("codec: varyblock payload: truncated literal at op %d: %w", op, err)
			}
			out.add(lit)
		default:
			return nil, fmt.Errorf("codec: varyblock payload: unknown op tag %d", tag[0])
		}
	}
	if uint64(out.len()) != curLen {
		return nil, fmt.Errorf("codec: varyblock payload reconstructed %d bytes, header says %d", out.len(), curLen)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("codec: varyblock payload: %w", err)
	}
	return out.bytes(), nil
}
