package codec

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
)

// This file is the client's gzip decoder: RFC 1952 members over RFC 1951
// deflate data, decoded from the whole payload straight into the output
// slice. It replaces compress/gzip's reader, which streams through a
// 32 KiB window, copies the window out to the caller and pulls every input
// byte through an io.ByteReader. Each Huffman table entry packs what its
// code means (tableEntry), so one lookup decodes a literal or a whole
// length or distance, and one shift consumes the code with its extra bits.
// The verdict follows compress/gzip's exactly — every stream it accepts
// decodes to the same bytes, every stream it refuses is refused with an
// error wrapping the same one of gzip.ErrHeader, gzip.ErrChecksum,
// io.ErrUnexpectedEOF or flate.CorruptInputError — with two deliberate
// departures: an empty payload is a truncated header (compress/gzip
// reports a bare io.EOF), and an output past maxInflate is refused.
// FuzzGzipDecode holds it to that against compress/gzip.

// maxInflate bounds what one payload may decode to: 64 MiB, the same as an
// INP message body (inp.MaxBody) and a deployed PAD's buffer budget
// (mobilecode.DefaultSandbox().MaxBufferBytes). Without it a maximal body
// could inflate maxExpansion times over before the VM saw the result.
const maxInflate = 64 << 20

// maxExpansion is the most output one byte of deflate data can carry: four
// 258-byte matches, each a one-bit length code and a one-bit distance code.
const maxExpansion = 4 * 258

var errInflateLimit = errors.New("output exceeds 64 MiB")

const (
	tableBits  = 10 // input bits one table lookup decodes
	tableMask  = 1<<tableBits - 1
	maxCodeLen = 15
	maxNumLit  = 286 // literal/length symbols a block may use
	maxNumDist = 30  // distance symbols a block may use
)

// A tableEntry packs what one code means: in bits 0-3 the code's length n
// (0 where a long code begins), in bits 4-7 the count x of extra bits
// after it, in bits 8-11 a kind flag (none for a length or distance), and
// in bits 16-31 a literal byte, a code-length symbol, or the base a length
// or distance adds its x extra bits to. b >>= n+x consumes the code and
// its extra bits. A zero entry begins no code at all.
type tableEntry = uint32

const (
	entLit  = 1 << 8  // a literal byte
	entEnd  = 1 << 9  // the end of the block
	entBad  = 1 << 10 // a symbol no block may use: lengths 286-287, distances 30-31
	entLong = 1 << 11 // a code longer than tableBits begins here
	entKind = entLit | entEnd | entBad | entLong
)

// huffman decodes one canonical Huffman code. table, indexed by the next
// tableBits input bits (first bit lowest), holds the entry of each code of
// up to tableBits; longer codes are decoded bit by bit from count and
// vals, the code's canonical form. The arrays are fixed-size so a
// decoder's state lives on the stack.
type huffman struct {
	table [1 << tableBits]tableEntry
	count [maxCodeLen + 1]uint16 // codes of each length
	vals  [288]tableEntry        // entries less n, ordered by code length, then symbol
	min   uint                   // bits compress/flate buffers before a lookup
}

// build sets h to the code with the given lengths over the alphabet whose
// symbols mean alphabet's entries, and reports whether compress/flate
// accepts it: a complete code, the empty code (which fails when used) or
// a single one-bit code.
func (h *huffman) build(lengths []uint8, alphabet []tableEntry) bool {
	h.count = [maxCodeLen + 1]uint16{}
	for _, l := range lengths {
		h.count[l]++
	}
	h.count[0] = 0
	h.min = 0
	left, codes := 1, 0 // unassigned codes of the current length; codes assigned
	for l := 1; l <= maxCodeLen; l++ {
		left = left<<1 - int(h.count[l])
		if left < 0 {
			return false
		}
		if h.min == 0 && h.count[l] != 0 {
			h.min = uint(l)
		}
		codes += int(h.count[l])
	}
	if left != 0 {
		if codes > 1 || codes == 1 && h.count[1] != 1 {
			return false
		}
		h.table = [1 << tableBits]tableEntry{} // the lookups no code reaches must read 0
	}
	var offs [maxCodeLen + 2]uint16
	for l := 1; l <= maxCodeLen; l++ {
		offs[l+1] = offs[l] + h.count[l]
	}
	for sym, l := range lengths {
		if l != 0 {
			h.vals[offs[l]] = alphabet[sym]
			offs[l]++
		}
	}
	code, i := 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		for end := i + int(h.count[l]); i < end; i++ {
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			if l <= tableBits {
				e := h.vals[i] | tableEntry(l)
				for j := rev; j < len(h.table); j += 1 << l {
					h.table[j] = e
				}
			} else {
				h.table[rev&tableMask] = entLong
			}
			code++
		}
		code <<= 1
	}
	return true
}

// decodeLong decodes a code longer than tableBits from b, first bit
// lowest, returning its entry.
func (h *huffman) decodeLong(b uint64) tableEntry {
	code, first, index := 0, 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		code |= int(b & 1)
		b >>= 1
		count := int(h.count[l])
		if code-first < count {
			return h.vals[index+code-first] | tableEntry(l)
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0 // unreachable: only complete codes have long entries
}

// Each symbol's entry: the code-length code reads its symbols as literals.
var litAlphabet, distAlphabet = func() (lit [288]tableEntry, dist [32]tableEntry) {
	for i := range 256 {
		lit[i] = tableEntry(i)<<16 | entLit
	}
	lit[256] = entEnd
	for i, base := range lengthBase {
		lit[257+i] = tableEntry(base)<<16 | tableEntry(lengthExtra[i])<<4
	}
	lit[286], lit[287] = entBad, entBad
	for i, base := range distBase {
		dist[i] = tableEntry(base)<<16 | tableEntry(distExtra[i])<<4
	}
	dist[30], dist[31] = entBad, entBad
	return
}()

// blockCodes are the two codes of a Huffman-coded block.
type blockCodes struct{ lit, dist huffman }

var fixed blockCodes

func init() {
	var lit [288]uint8
	for i := range lit {
		switch {
		case i < 144, i >= 280:
			lit[i] = 8
		case i < 256:
			lit[i] = 9
		default:
			lit[i] = 7
		}
	}
	var dist [32]uint8
	for i := range dist {
		dist[i] = 5
	}
	fixed.lit.build(lit[:], litAlphabet[:])
	fixed.dist.build(dist[:], distAlphabet[:])
}

var (
	lengthBase  = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [maxNumDist]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [maxNumDist]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// codeOrder is the order in which a dynamic block lists the lengths of
	// its code-length code.
	codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// inflater is the state of one decode. Input is consumed through bits, a
// 64-bit buffer refilled a word at a time; output is written in place.
type inflater struct {
	in    []byte
	pos   int    // next payload byte not yet in bits
	bits  uint64 // buffered input, next bit lowest
	nbits uint
	out   []byte // decoded so far is out[:w]; len(out) is the room reserved
	w     int
	start int // where the current member's output begins
	hint  int // the trailer's ISIZE: the likely final size

	dyn     blockCodes
	lengths [maxNumLit + maxNumDist]uint8
}

// inflate decodes a gzip payload of one or more members. The last
// trailer's ISIZE field (the last member's length mod 2^32) sizes the
// output once. It is an unvalidated hint, capped like every other wire
// length here, so a trailer that lies or belongs to the last of several
// members costs a regrow or some slack, never correctness.
func inflate(payload []byte) ([]byte, error) {
	hint := uint32(0)
	if len(payload) >= 4 {
		hint = binary.LittleEndian.Uint32(payload[len(payload)-4:])
	}
	f := inflater{in: payload, hint: int(hint), out: make([]byte, min(hint, maxDecodeReserve))}
	for {
		if err := f.header(); err != nil {
			return nil, err
		}
		f.start = f.w
		if err := f.deflate(); err != nil {
			return nil, err
		}
		if len(f.in)-f.pos < 8 {
			return nil, io.ErrUnexpectedEOF
		}
		crc := binary.LittleEndian.Uint32(f.in[f.pos:])
		size := binary.LittleEndian.Uint32(f.in[f.pos+4:])
		f.pos += 8
		member := f.out[f.start:f.w]
		if crc != crc32.ChecksumIEEE(member) || size != uint32(len(member)) {
			return nil, gzip.ErrChecksum
		}
		if f.pos == len(f.in) {
			return f.out[:f.w], nil
		}
	}
}

const (
	flagHdrCrc  = 1 << 1
	flagExtra   = 1 << 2
	flagName    = 1 << 3
	flagComment = 1 << 4
)

// header skips one member header, checking it as compress/gzip does.
func (f *inflater) header() error {
	in := f.in[f.pos:]
	if len(in) < 10 {
		return io.ErrUnexpectedEOF
	}
	if in[0] != 0x1f || in[1] != 0x8b || in[2] != 8 {
		return gzip.ErrHeader
	}
	flg, p := in[3], 10
	if flg&flagExtra != 0 {
		if len(in)-p < 2 {
			return io.ErrUnexpectedEOF
		}
		n := int(binary.LittleEndian.Uint16(in[p:]))
		p += 2
		if len(in)-p < n {
			return io.ErrUnexpectedEOF
		}
		p += n
	}
	for _, flag := range [2]byte{flagName, flagComment} {
		if flg&flag == 0 {
			continue
		}
		// A string ends in a NUL within compress/gzip's 512-byte buffer.
		i := bytes.IndexByte(in[p:min(len(in), p+512)], 0)
		if i < 0 && len(in)-p < 512 {
			return io.ErrUnexpectedEOF
		}
		if i < 0 {
			return gzip.ErrHeader
		}
		p += i + 1
	}
	if flg&flagHdrCrc != 0 {
		if len(in)-p < 2 {
			return io.ErrUnexpectedEOF
		}
		if binary.LittleEndian.Uint16(in[p:]) != uint16(crc32.ChecksumIEEE(in[:p])) {
			return gzip.ErrHeader
		}
		p += 2
	}
	f.pos += p
	return nil
}

// deflate decodes one member's blocks, leaving pos at the byte after the
// last one.
func (f *inflater) deflate() error {
	for {
		hdr, err := f.take(3)
		if err != nil {
			return err
		}
		switch hdr >> 1 {
		case 0:
			err = f.stored()
		case 1:
			err = f.codes(&fixed)
		case 2:
			if err = f.dynamic(); err == nil {
				err = f.codes(&f.dyn)
			}
		default:
			err = f.corrupt()
		}
		if err != nil {
			return err
		}
		if hdr&1 == 1 {
			f.align()
			return nil
		}
	}
}

// corrupt reports corruption at the payload offset read so far.
func (f *inflater) corrupt() error { return flate.CorruptInputError(f.pos) }

// refill tops bits up to at least 56, or to the end of the payload. A full
// word load may also set bits above nbits; they are the next input bits,
// which the following refill ORs in again unchanged.
func (f *inflater) refill() {
	if f.pos+8 <= len(f.in) {
		f.bits |= binary.LittleEndian.Uint64(f.in[f.pos:]) << f.nbits
		n := (63 - f.nbits) >> 3
		f.pos += int(n)
		f.nbits += n << 3
		return
	}
	for f.nbits <= 56 && f.pos < len(f.in) {
		f.bits |= uint64(f.in[f.pos]) << f.nbits
		f.pos++
		f.nbits += 8
	}
}

// align drops the rest of a partly read byte and gives the whole bytes
// still buffered back to the payload, so pos is the next byte boundary.
func (f *inflater) align() {
	f.pos -= int(f.nbits >> 3)
	f.bits, f.nbits = 0, 0
}

// take consumes n ≤ 32 bits.
func (f *inflater) take(n uint) (uint32, error) {
	if f.nbits < n {
		if f.refill(); f.nbits < n {
			return 0, io.ErrUnexpectedEOF
		}
	}
	v := uint32(f.bits & (1<<n - 1))
	f.bits >>= n
	f.nbits -= n
	return v, nil
}

// sym decodes one code of h, returning its entry; any extra bits are
// left for take. Near the end of the payload it follows compress/flate:
// fewer than h.min bits left is truncation, bits no code begins with are
// corruption, and a code cut short is truncation.
func (f *inflater) sym(h *huffman) (tableEntry, error) {
	if f.nbits < maxCodeLen {
		f.refill()
	}
	if f.nbits < h.min {
		return 0, io.ErrUnexpectedEOF
	}
	e := h.table[f.bits&tableMask]
	if e == 0 {
		return 0, f.corrupt()
	}
	if e&entLong != 0 {
		e = h.decodeLong(f.bits)
	}
	n := uint(e & 15)
	if n > f.nbits {
		return 0, io.ErrUnexpectedEOF
	}
	f.bits >>= n
	f.nbits -= n
	return e, nil
}

// grow makes room for n more output bytes. Past the reserve it trusts the
// ISIZE hint, but never beyond what the rest of the payload could encode,
// and never beyond maxInflate.
func (f *inflater) grow(n int) error {
	need := f.w + n
	if need > maxInflate {
		return errInflateLimit
	}
	bound := need + maxExpansion*(len(f.in)-f.pos+8)
	size := min(max(2*len(f.out), min(f.hint, bound), need), maxInflate)
	out := make([]byte, size)
	copy(out, f.out[:f.w])
	f.out = out
	return nil
}

// stored copies a stored block.
func (f *inflater) stored() error {
	f.align()
	if len(f.in)-f.pos < 4 {
		return io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint16(f.in[f.pos:])
	nn := binary.LittleEndian.Uint16(f.in[f.pos+2:])
	f.pos += 4
	if n != ^nn {
		return f.corrupt()
	}
	if len(f.in)-f.pos < int(n) {
		return io.ErrUnexpectedEOF
	}
	if f.w+int(n) > len(f.out) {
		if err := f.grow(int(n)); err != nil {
			return err
		}
	}
	f.w += copy(f.out[f.w:], f.in[f.pos:f.pos+int(n)])
	f.pos += int(n)
	return nil
}

// dynamic reads a dynamic block's code lengths into f.dyn.
func (f *inflater) dynamic() error {
	v, err := f.take(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if nlit > maxNumLit || ndist > maxNumDist {
		return f.corrupt()
	}
	var clens [len(codeOrder)]uint8
	for _, sym := range codeOrder[:nclen] {
		v, err := f.take(3)
		if err != nil {
			return err
		}
		clens[sym] = uint8(v)
	}
	if !f.dyn.lit.build(clens[:], litAlphabet[:]) {
		return f.corrupt()
	}
	lengths := f.lengths[:nlit+ndist]
	for i := 0; i < len(lengths); {
		e, err := f.sym(&f.dyn.lit)
		if err != nil {
			return err
		}
		if sym := e >> 16; sym < 16 {
			lengths[i] = uint8(sym)
			i++
			continue
		}
		var rep uint32
		var prev uint8
		switch e >> 16 {
		case 16:
			if i == 0 {
				return f.corrupt()
			}
			prev = lengths[i-1]
			rep, err = f.take(2)
			rep += 3
		case 17:
			rep, err = f.take(3)
			rep += 3
		default:
			rep, err = f.take(7)
			rep += 11
		}
		if err != nil {
			return err
		}
		if i+int(rep) > len(lengths) {
			return f.corrupt()
		}
		for end := i + int(rep); i < end; i++ {
			lengths[i] = prev
		}
	}
	if !f.dyn.lit.build(lengths[:nlit], litAlphabet[:]) || !f.dyn.dist.build(lengths[nlit:], distAlphabet[:]) {
		return f.corrupt()
	}
	// compress/flate buffers the end-of-block code's length before any
	// literal/length lookup, which decides where a truncated block fails.
	f.dyn.lit.min = max(f.dyn.lit.min, uint(lengths[256]))
	return nil
}

// codes decodes one Huffman-coded block with the given codes. Its loop
// keeps the decoder's state in locals and checks bounds once per turn: it
// runs while a whole word of payload is left to load and the longest match
// fits the room reserved, with the word copies' overshoot; near the end of
// the payload or of the room, step decodes one symbol with every check.
func (f *inflater) codes(c *blockCodes) error {
	const room = 258 + 16
	in, pos, b, nb, out, w := f.in, f.pos, f.bits, f.nbits, f.out, f.w
	for {
		if pos+8 > len(in) || len(out)-w < room {
			f.pos, f.bits, f.nbits, f.w = pos, b, nb, w
			if done, err := f.step(c); done || err != nil {
				return err
			}
			pos, b, nb, out, w = f.pos, f.bits, f.nbits, f.out, f.w
			continue
		}
		// Look the next code up beside the refill, not after it, unless
		// fewer than tableBits are buffered. The refill leaves at least 56
		// bits: two literals, or a whole match's 15+5+15+13.
		e, short := c.lit.table[b&tableMask], nb < tableBits
		b |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
		pos += int(7 - nb>>3)
		nb |= 56 // nb + 8 per whole byte loaded
		if short {
			e = c.lit.table[b&tableMask]
		}
		if e&entLong != 0 {
			e = c.lit.decodeLong(b)
		}
		if e&entLit != 0 {
			n := uint(e & 15)
			b >>= n
			nb -= n
			out[w] = byte(e >> 16)
			w++
			if e = c.lit.table[b&tableMask]; e&entLit != 0 {
				n = uint(e & 15)
				b >>= n
				nb -= n
				out[w] = byte(e >> 16)
				w++
			}
			continue
		}
		if e&entKind != 0 || e == 0 { // end of block, a bad symbol or no code
			n := uint(e & 15)
			f.pos, f.bits, f.nbits, f.w = pos, b>>n, nb-n, w
			if e&entEnd != 0 {
				return nil
			}
			return f.corrupt()
		}
		n, x := uint(e&15), uint(e>>4&15)
		length := int(e>>16) + int(b>>n&(1<<x-1))
		b >>= n + x
		nb -= n + x
		if e = c.dist.table[b&tableMask]; e&entLong != 0 {
			e = c.dist.decodeLong(b)
		}
		if e&entKind != 0 || e == 0 { // a bad symbol or no code
			f.pos, f.bits, f.nbits, f.w = pos, b, nb, w
			return f.corrupt()
		}
		n, x = uint(e&15), uint(e>>4&15)
		d := int(e>>16) + int(b>>n&(1<<x-1))
		b >>= n + x
		nb -= n + x
		if d > w-f.start {
			f.pos, f.bits, f.nbits, f.w = pos, b, nb, w
			return f.corrupt()
		}
		if d < 8 || length > 64 {
			w = copyMatch(out, w, d, length)
			continue
		}
		// A short match far enough back moves a word at a time, the first
		// two whatever its length; room leaves space for the overshoot.
		binary.LittleEndian.PutUint64(out[w:], binary.LittleEndian.Uint64(out[w-d:]))
		binary.LittleEndian.PutUint64(out[w+8:], binary.LittleEndian.Uint64(out[w+8-d:]))
		for i := w + 16; i < w+length; i += 8 {
			binary.LittleEndian.PutUint64(out[i:], binary.LittleEndian.Uint64(out[i-d:]))
		}
		w += length
	}
}

// copyMatch appends the length bytes found d back from w in out, which
// has room for them, and returns the new end.
func copyMatch(out []byte, w, d, length int) int {
	end, src := w+length, w-d
	if d >= length {
		copy(out[w:end], out[src:])
		return end
	}
	// An overlapping match repeats the last d bytes; each copy doubles the
	// run it copies from.
	for w < end {
		w += copy(out[w:end], out[src:w])
	}
	return end
}

// step decodes one literal, match or end of block with every bounds
// check, reporting whether the block ended.
func (f *inflater) step(c *blockCodes) (bool, error) {
	e, err := f.sym(&c.lit)
	if err != nil {
		return false, err
	}
	switch {
	case e&entLit != 0:
		if f.w == len(f.out) {
			if err := f.grow(1); err != nil {
				return false, err
			}
		}
		f.out[f.w] = byte(e >> 16)
		f.w++
		return false, nil
	case e&entEnd != 0:
		return true, nil
	case e&entBad != 0:
		return false, f.corrupt()
	}
	extra, err := f.take(uint(e >> 4 & 15))
	if err != nil {
		return false, err
	}
	length := int(e>>16) + int(extra)
	if e, err = f.sym(&c.dist); err != nil {
		return false, err
	}
	if e&entBad != 0 {
		return false, f.corrupt()
	}
	if extra, err = f.take(uint(e >> 4 & 15)); err != nil {
		return false, err
	}
	d := int(e>>16) + int(extra)
	if d > f.w-f.start {
		return false, f.corrupt()
	}
	if f.w+length > len(f.out) {
		if err := f.grow(length); err != nil {
			return false, err
		}
	}
	f.w = copyMatch(f.out, f.w, d, length)
	return false, nil
}
