package codec

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"fmt"

	"fractal/internal/wire"
)

// rsyncMagic identifies an Rsync wire payload.
var rsyncMagic = []byte("FRS1")

// NameRsync is the name of the fix-sized blocking protocol.
const NameRsync = "rsync"

// Rsync op tags.
const (
	rsyncOpCopy = 0 // copy old block by index
	rsyncOpLit  = 1 // literal bytes follow
)

// Rsync implements fix-sized blocking as used by the rsync software
// (Tridgell & Mackerras [50], discussed in the paper's related work): the
// receiver's old version is divided into fixed-size blocks, each
// summarized by a fast rolling checksum and a strong SHA-1 digest; the
// sender slides a window over the new version and emits block references
// wherever a block of the old version reappears at ANY offset, literals
// elsewhere. Unlike Bitmap it survives insertions; unlike Vary-sized
// blocking its signatures are fixed-rate.
type Rsync struct {
	blockSize int
}

// NewRsync returns the protocol with the given block size.
func NewRsync(blockSize int) (*Rsync, error) {
	if blockSize < 16 || blockSize > 1<<20 {
		return nil, fmt.Errorf("codec: rsync block size %d out of range [16, 1MiB]", blockSize)
	}
	return &Rsync{blockSize: blockSize}, nil
}

// Name implements Codec.
func (*Rsync) Name() string { return NameRsync }

// BlockSize returns the configured block granularity.
func (r *Rsync) BlockSize() int { return r.blockSize }

// Cost implements Costed: the sliding-window match is the dominant
// (sender-side) term; reconstruction is cheap.
func (*Rsync) Cost() CostModel {
	return CostModel{ServerNsPerByte: 2400, ClientNsPerByte: 700, ServerFixed: 400 * 1000, ClientFixed: 200 * 1000}
}

// UpstreamBytes implements UpstreamCoster: the receiver uploads a weak
// (4-byte) and strong (20-byte) checksum per block of its old version.
func (r *Rsync) UpstreamBytes(old []byte) int64 {
	blocks := len(old) / r.blockSize // rsync signs only full blocks
	return int64(blocks) * (4 + sha1.Size)
}

// weakSum is the rsync rolling checksum (a variant of Adler-32 without the
// modulo): a = sum of bytes, b = sum of (len-i)*byte_i, both mod 2^16.
func weakSum(p []byte) uint32 {
	var a, b uint32
	for i, c := range p {
		a += uint32(c)
		b += uint32(len(p)-i) * uint32(c)
	}
	return (a & 0xffff) | (b << 16)
}

// roll updates a weak checksum when the window slides one byte: out
// leaves, in enters, n is the window length.
func roll(sum uint32, out, in byte, n int) uint32 {
	a := sum & 0xffff
	b := sum >> 16
	a = (a - uint32(out) + uint32(in)) & 0xffff
	b = (b - uint32(n)*uint32(out) + a) & 0xffff
	return a | (b << 16)
}

// Encode implements Codec. Payload layout:
//
//	"FRS1" | uvarint blockSize | uvarint len(cur) | uvarint len(old) |
//	uvarint nops | ops: tag 0 => uvarint oldBlockIndex
//	                    tag 1 => uvarint litLen | bytes
func (r *Rsync) Encode(old, cur []byte) ([]byte, error) {
	bs := r.blockSize
	// Signature table of the old version's full blocks.
	type sig struct {
		strong [sha1.Size]byte
		index  int
	}
	table := make(map[uint32][]sig)
	for i := 0; i+bs <= len(old); i += bs {
		blk := old[i : i+bs]
		w := weakSum(blk)
		table[w] = append(table[w], sig{strong: sha1.Sum(blk), index: i / bs})
	}

	var ops bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	nops := 0
	emitLit := func(lit []byte) {
		if len(lit) == 0 {
			return
		}
		ops.WriteByte(rsyncOpLit)
		ops.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(lit)))])
		ops.Write(lit)
		nops++
	}
	emitCopy := func(index int) {
		ops.WriteByte(rsyncOpCopy)
		ops.Write(tmp[:binary.PutUvarint(tmp[:], uint64(index))])
		nops++
	}

	litStart := 0 // start of the pending literal run
	pos := 0
	var w uint32
	haveSum := false
	for pos+bs <= len(cur) {
		if !haveSum {
			w = weakSum(cur[pos : pos+bs])
			haveSum = true
		}
		matched := -1
		if cands, ok := table[w]; ok {
			strong := sha1.Sum(cur[pos : pos+bs])
			for _, c := range cands {
				if c.strong == strong {
					matched = c.index
					break
				}
			}
		}
		if matched >= 0 {
			emitLit(cur[litStart:pos])
			emitCopy(matched)
			pos += bs
			litStart = pos
			haveSum = false
			continue
		}
		// Slide one byte.
		if pos+bs < len(cur) {
			w = roll(w, cur[pos], cur[pos+bs], bs)
		}
		pos++
	}
	emitLit(cur[litStart:])

	out := bytes.NewBuffer(nil)
	out.Write(rsyncMagic)
	for _, u := range []uint64{uint64(bs), uint64(len(cur)), uint64(len(old)), uint64(nops)} {
		out.Write(tmp[:binary.PutUvarint(tmp[:], u)])
	}
	out.Write(ops.Bytes())
	return out.Bytes(), nil
}

// Decode implements Codec. Every count in the payload is read through
// wire.Reader, which bounds it by the bytes actually present before
// anything is sized from it.
// A payload that rebuilds old, or a prefix of it, decodes to old itself
// (see output).
func (r *Rsync) Decode(old, payload []byte) ([]byte, error) {
	rd := wire.NewReader(payload, true)
	if !bytes.Equal(rd.Take(uint64(len(rsyncMagic))), rsyncMagic) {
		return nil, fmt.Errorf("codec: rsync payload: bad magic")
	}
	bsU, curLen, oldLen, nops := rd.Uvarint(), rd.Uvarint(), rd.Uvarint(), rd.Uvarint()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("codec: rsync payload: reading header: %w", err)
	}
	if bsU < 16 || bsU > 1<<20 {
		return nil, fmt.Errorf("codec: rsync payload: block size %d out of range", bsU)
	}
	if curLen > 1<<32 {
		return nil, fmt.Errorf("codec: rsync payload: content length %d unreasonable", curLen)
	}
	if oldLen != uint64(len(old)) {
		return nil, fmt.Errorf("codec: rsync payload encoded against %d-byte old version, receiver holds %d bytes", oldLen, len(old))
	}
	if nops > curLen+1 {
		return nil, fmt.Errorf("codec: rsync payload: %d ops for %d bytes is impossible", nops, curLen)
	}
	bs := int(bsU)
	out := newOutput(old, curLen)
	for op := uint64(0); op < nops; op++ {
		// Both ops are a tag byte and one uvarint: a block index or a
		// literal length.
		tag, n := rd.Take(1), rd.Uvarint()
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("codec: rsync payload: truncated at op %d: %w", op, err)
		}
		switch tag[0] {
		case rsyncOpCopy:
			if n >= uint64(len(old)/bs) {
				return nil, fmt.Errorf("codec: rsync payload references old block %d beyond %d bytes", n, len(old))
			}
			start := int(n) * bs
			out.add(old[start : start+bs])
		case rsyncOpLit:
			lit := rd.Take(n)
			if err := rd.Err(); err != nil {
				return nil, fmt.Errorf("codec: rsync payload: truncated literal at op %d: %w", op, err)
			}
			out.add(lit)
		default:
			return nil, fmt.Errorf("codec: rsync payload: unknown op tag %d", tag[0])
		}
	}
	if uint64(out.len()) != curLen {
		return nil, fmt.Errorf("codec: rsync payload reconstructed %d bytes, header says %d", out.len(), curLen)
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("codec: rsync payload: %w", err)
	}
	return out.bytes(), nil
}
