package codec

import (
	"bufio"
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"fractal/internal/arena"
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

// BlockSize returns the configured block granularity.
func (b *Bitmap) BlockSize() int { return b.blockSize }

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

// Decode implements Codec.
func (b *Bitmap) Decode(old, payload []byte) ([]byte, error) {
	return b.DecodeFrom(old, bytes.NewReader(payload))
}

// DecodeFrom decodes a Bitmap payload from a stream. The reader may
// deliver arbitrarily short reads (chunked transports routinely do);
// every framed field is read with io.ReadFull so a short read is a
// truncation error, never silently-misparsed framing.
func (b *Bitmap) DecodeFrom(old []byte, src io.Reader) ([]byte, error) {
	r := bufio.NewReader(src)
	magic := make([]byte, len(bitmapMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, bitmapMagic) {
		return nil, fmt.Errorf("codec: bitmap payload: bad magic")
	}
	readU := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("codec: bitmap payload: reading %s: %w", what, err)
		}
		return v, nil
	}
	bsU, err := readU("block size")
	if err != nil {
		return nil, err
	}
	curLenU, err := readU("content length")
	if err != nil {
		return nil, err
	}
	oldLenU, err := readU("old length")
	if err != nil {
		return nil, err
	}
	bs := int(bsU)
	if bs < 16 || bs > 1<<20 {
		return nil, fmt.Errorf("codec: bitmap payload: block size %d out of range", bs)
	}
	if curLenU > 1<<32 {
		return nil, fmt.Errorf("codec: bitmap payload: content length %d unreasonable", curLenU)
	}
	curLen := int(curLenU)
	if int(oldLenU) != len(old) {
		return nil, fmt.Errorf("codec: bitmap payload encoded against %d-byte old version, receiver holds %d bytes", oldLenU, len(old))
	}
	nblocks := (curLen + bs - 1) / bs
	// The bitmap's size is derived from the (hostile) header length, so it
	// is read incrementally in clamped steps rather than allocated up
	// front: a header claiming 4 GB of content yields a ~32 MB bitmap
	// length, but the allocation only grows as bytes actually arrive.
	bmLen := (nblocks + 7) / 8
	bmReserve := bmLen
	if bmReserve > maxDecodeReserve {
		bmReserve = maxDecodeReserve
	}
	bitmap := make([]byte, 0, bmReserve)
	for len(bitmap) < bmLen {
		step := bmLen - len(bitmap)
		if step > maxDecodeReserve {
			step = maxDecodeReserve
		}
		off := len(bitmap)
		bitmap = slices.Grow(bitmap, step)[:off+step]
		if _, err := io.ReadFull(r, bitmap[off:]); err != nil {
			return nil, fmt.Errorf("codec: bitmap payload: truncated bitmap: %w", err)
		}
	}
	reserve := curLen
	if reserve > maxDecodeReserve {
		// An unvalidated header length must not force a huge allocation;
		// the output grows naturally as blocks are actually produced.
		reserve = maxDecodeReserve
	}
	out := make([]byte, 0, reserve)
	for i := 0; i < nblocks; i++ {
		start := i * bs
		end := start + bs
		if end > curLen {
			end = curLen
		}
		blkLen := end - start
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			// Read the literal straight into the output's free space — no
			// per-block staging slice.
			off := len(out)
			out = slices.Grow(out, blkLen)[:off+blkLen]
			if _, err := io.ReadFull(r, out[off:]); err != nil {
				return nil, fmt.Errorf("codec: bitmap payload: truncated literal block %d: %w", i, err)
			}
			continue
		}
		if start+blkLen > len(old) {
			return nil, fmt.Errorf("codec: bitmap payload references old block %d beyond old length %d", i, len(old))
		}
		out = append(out, old[start:start+blkLen]...)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("codec: bitmap payload has trailing bytes")
	}
	return out, nil
}
