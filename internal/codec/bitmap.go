package codec

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"fmt"

	"fractal/internal/arena"
	"fractal/internal/wire"
)

// DefaultBlockSize is the fixed block granularity of the Bitmap protocol.
const DefaultBlockSize = 512

// bitmapMagic identifies a Bitmap wire payload.
var bitmapMagic = []byte("FBM1")

// Bitmap is the fixed-size blocking protocol from [29]: both versions are
// divided into BlockSize-byte blocks; the server sends a bitmap of which
// block positions changed plus the literal data of changed blocks, and the
// client rebuilds the new version from its old copy plus the literals. In
// the full exchange the client first uploads per-block digests
// (UpstreamBytes); the simulation charges that traffic, while Encode — run
// where the server already stores the old version — compares blocks
// directly.
//
// Bitmap is stateless and safe for concurrent use. No digest vector is
// kept or cached: with both versions in memory, hashing a version costs
// more than comparing it (DESIGN.md, "Ablation receipts").
type Bitmap struct {
	blockSize int
}

// NewBitmap returns a Bitmap protocol with the given block size.
func NewBitmap(blockSize int) (*Bitmap, error) {
	if blockSize < 16 || blockSize > 1<<20 {
		return nil, fmt.Errorf("codec: bitmap block size %d out of range [16, 1MiB]", blockSize)
	}
	return &Bitmap{blockSize: blockSize}, nil
}

// Name implements Codec.
func (*Bitmap) Name() string { return NameBitmap }

// Cost implements Costed; see DESIGN.md ("Calibration"). The client-side
// term is large: the client digests its entire old version block by block
// and rebuilds the new version, expensive on weak devices.
func (*Bitmap) Cost() CostModel {
	return CostModel{ServerNsPerByte: 398, ClientNsPerByte: 1663, ServerFixed: 300 * 1000, ClientFixed: 300 * 1000}
}

// UpstreamBytes implements UpstreamCoster: the client sends one SHA-1
// digest per block of its old version.
func (b *Bitmap) UpstreamBytes(old []byte) int64 {
	blocks := (len(old) + b.blockSize - 1) / b.blockSize
	return int64(blocks) * sha1.Size
}

// Encode implements Codec. Payload layout:
//
//	"FBM1" | uvarint blockSize | uvarint len(cur) | uvarint len(old) |
//	bitmap (ceil(nblocks/8) bytes, bit i set => block i is a literal) |
//	literal block data in block order
func (b *Bitmap) Encode(old, cur []byte) ([]byte, error) {
	bs := b.blockSize
	nblocks := (len(cur) + bs - 1) / bs
	bitmap := make([]byte, (nblocks+7)/8)
	// Literal staging comes from the unified arena (see VaryBlock.Encode).
	var lits arena.Buffer
	defer lits.Release()
	for i := 0; i < nblocks; i++ {
		start := i * bs
		end := start + bs
		if end > len(cur) {
			end = len(cur)
		}
		curBlk := cur[start:end]
		same := false
		if start < len(old) {
			oend := start + bs
			if oend > len(old) {
				oend = len(old)
			}
			same = bytes.Equal(curBlk, old[start:oend])
		}
		if !same {
			bitmap[i/8] |= 1 << (i % 8)
			lits.Write(curBlk)
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	out := make([]byte, 0, len(bitmapMagic)+3*binary.MaxVarintLen64+len(bitmap)+lits.Len())
	out = append(out, bitmapMagic...)
	for _, v := range []uint64{uint64(bs), uint64(len(cur)), uint64(len(old))} {
		out = append(out, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	out = append(out, bitmap...)
	out = append(out, lits.Bytes()...)
	return out, nil
}

// Decode implements Codec. Every count in the payload is read through
// wire.Reader, which bounds it by the bytes actually present before
// anything is sized from it.
// A payload that rebuilds old, or a prefix of it, decodes to old itself
// (see output).
func (b *Bitmap) Decode(old, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload, true)
	if !bytes.Equal(r.Take(uint64(len(bitmapMagic))), bitmapMagic) {
		return nil, fmt.Errorf("codec: bitmap payload: bad magic")
	}
	bsU, curLenU, oldLenU := r.Uvarint(), r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("codec: bitmap payload: reading header: %w", err)
	}
	if bsU < 16 || bsU > 1<<20 {
		return nil, fmt.Errorf("codec: bitmap payload: block size %d out of range", bsU)
	}
	if curLenU > 1<<32 {
		return nil, fmt.Errorf("codec: bitmap payload: content length %d unreasonable", curLenU)
	}
	if oldLenU != uint64(len(old)) {
		return nil, fmt.Errorf("codec: bitmap payload encoded against %d-byte old version, receiver holds %d bytes", oldLenU, len(old))
	}
	bs, curLen := int(bsU), int(curLenU)
	nblocks := (curLen + bs - 1) / bs
	bitmap := r.Take(uint64(nblocks+7) / 8)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("codec: bitmap payload: truncated bitmap: %w", err)
	}
	out := newOutput(old, curLenU)
	for i := 0; i < nblocks; i++ {
		start := i * bs
		end := min(start+bs, curLen)
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			lit := r.Take(uint64(end - start))
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("codec: bitmap payload: truncated literal block %d: %w", i, err)
			}
			out.add(lit)
			continue
		}
		if end > len(old) {
			return nil, fmt.Errorf("codec: bitmap payload references old block %d beyond old length %d", i, len(old))
		}
		out.add(old[start:end])
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("codec: bitmap payload: %w", err)
	}
	return out.bytes(), nil
}
