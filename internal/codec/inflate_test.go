package codec

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"fractal/internal/workload"
)

// gunzip is the oracle: compress/gzip's reader over the whole payload.
func gunzip(payload []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

// errClass names which of the standard library's refusals err wraps.
func errClass(err error) string {
	var corrupt flate.CorruptInputError
	switch {
	case errors.Is(err, gzip.ErrHeader):
		return "header"
	case errors.Is(err, gzip.ErrChecksum):
		return "checksum"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	case errors.As(err, &corrupt):
		return "corrupt"
	case errors.Is(err, errInflateLimit):
		return "limit"
	}
	return fmt.Sprintf("unexpected error %v", err)
}

// matchOracle requires Gzip.Decode to reach compress/gzip's verdict on
// payload: the same bytes where it accepts, and a refusal of the same
// class where it refuses. The two departures inflate.go names are mapped:
// an empty payload (io.EOF from gzip.NewReader) is truncation, and an
// output past maxInflate is refused.
func matchOracle(t *testing.T, payload []byte) {
	t.Helper()
	want, werr := gunzip(payload)
	if werr == io.EOF {
		werr = io.ErrUnexpectedEOF
	}
	if werr == nil && len(want) > maxInflate {
		werr = errInflateLimit
	}
	got, err := NewGzip().Decode(nil, payload)
	switch {
	case werr == nil && err != nil:
		t.Fatalf("%d-byte payload: compress/gzip accepts it, Decode refuses: %v", len(payload), err)
	case werr != nil && err == nil:
		t.Fatalf("%d-byte payload: compress/gzip refuses it (%v), Decode accepts %d bytes", len(payload), werr, len(got))
	case werr != nil && errClass(err) != errClass(werr):
		t.Fatalf("%d-byte payload: Decode refuses with %v, compress/gzip with %v", len(payload), err, werr)
	case werr == nil && !bytes.Equal(got, want):
		t.Fatalf("%d-byte payload: Decode gives %d bytes, compress/gzip %d, or they differ", len(payload), len(got), len(want))
	}
}

// withHeaderCRC sets FHCRC on a member whose header is hdrLen bytes and
// inserts the header's CRC-16 after it.
func withHeaderCRC(member []byte, hdrLen int) []byte {
	out := append([]byte(nil), member[:hdrLen]...)
	out[3] |= flagHdrCrc
	out = binary.LittleEndian.AppendUint16(out, uint16(crc32.ChecksumIEEE(out)))
	return append(out, member[hdrLen:]...)
}

// seedLevels are the levels the seeds compress a page at; 0 makes stored
// blocks.
var seedLevels = []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, gzip.DefaultCompression, gzip.BestCompression}

// gzipSeeds are the fuzz seeds: a corpus-shaped page at each seed level,
// two concatenated members, a header with every optional field, a forged
// ISIZE, a block with codes too long for one table lookup, and
// truncations in the header, a block and the trailer. The page
// is a 4 KB one: the fuzzer minimizes every input that finds new coverage,
// and on a full 136 KB page that takes the whole budget.
func gzipSeeds(t testing.TB) [][]byte {
	c, err := workload.Generate(workload.Config{Pages: 1, TextBytes: 256, Images: 1, ImageBytes: 256, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	page := c.Pages[0].Bytes()
	var seeds [][]byte
	for _, level := range seedLevels {
		seeds = append(seeds, freshGzip(t, level, page))
	}
	small := []byte("a short member, said twice: a short member")
	one := freshGzip(t, gzip.DefaultCompression, small)
	seeds = append(seeds, append(append([]byte(nil), one...), freshGzip(t, gzip.BestSpeed, page)...))

	var b bytes.Buffer
	w, err := gzip.NewWriterLevel(&b, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	w.Header = gzip.Header{Name: "page.html", Comment: "fixture", Extra: []byte{'F', 'r', 2, 0, 1, 2}}
	w.Write(small)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	hdrLen := 10 + 2 + len(w.Header.Extra) + len(w.Header.Name) + 1 + len(w.Header.Comment) + 1
	seeds = append(seeds, withHeaderCRC(b.Bytes(), hdrLen))

	forged := append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], 1<<31)
	seeds = append(seeds, forged, freshGzip(t, gzip.BestCompression, longCodeContent()))
	return append(seeds, one[:6], one[:len(one)/2], one[:len(one)-3])
}

// longCodeContent compresses to one dynamic block whose literal/length
// and distance codes both include codes longer than tableBits, which a
// lookup cannot decode alone (TestGzipSeedsReachLongCodes). Random bytes
// keep unplanted matches rare; the planted ones lie at the bases of
// distance codes 4-17 (at least 5 back, so no earlier run of one byte
// can stand in for them) with Fibonacci counts, the frequencies that make
// a Huffman code deepest, and eight of them have a length no other match
// has.
func longCodeContent() []byte {
	rng := rand.New(rand.NewSource(31))
	var jobs []int // one distance code per match
	for k, a, b := 4, 377, 233; k < 18; k, a, b = k+1, b, max(a-b, 1) {
		for range a {
			jobs = append(jobs, k)
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	rare := []int{20, 35, 43, 67, 99, 131, 163, 258}
	var out []byte
	for i, k := range jobs {
		d, n := int(distBase[k]), 6
		if i < len(rare) {
			n = rare[i]
		}
		for range d {
			out = append(out, byte(rng.Intn(256)))
		}
		for range n { // an n-byte match d back
			out = append(out, out[len(out)-d])
		}
	}
	return out
}

// TestGzipSeedsReachLongCodes: the long-code seed's first block codes
// literals and distances past tableBits, so the fuzzer starts from inputs
// that take decodeLong.
func TestGzipSeedsReachLongCodes(t *testing.T) {
	payload := freshGzip(t, gzip.BestCompression, longCodeContent())
	f := inflater{in: payload}
	if err := f.header(); err != nil {
		t.Fatal(err)
	}
	if hdr, err := f.take(3); err != nil || hdr>>1 != 2 {
		t.Fatalf("first block header %d (%v), want a dynamic block", hdr, err)
	}
	if err := f.dynamic(); err != nil {
		t.Fatal(err)
	}
	long := func(h *huffman) (n int) {
		for l := tableBits + 1; l <= maxCodeLen; l++ {
			n += int(h.count[l])
		}
		return n
	}
	if long(&f.dyn.lit) == 0 || long(&f.dyn.dist) == 0 {
		t.Fatalf("codes longer than %d bits: %d literal/length, %d distance; want both", tableBits, long(&f.dyn.lit), long(&f.dyn.dist))
	}
	matchOracle(t, payload)
}

func FuzzGzipDecode(f *testing.F) {
	for _, s := range gzipSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) { matchOracle(t, payload) })
}

// TestGzipDecodeMatchesStandardLibrary holds the decoder to compress/gzip
// over seeded damage: every seed, a full-size page at each seed level, and
// mixed-content members at every level, corrupted, truncated, extended and
// concatenated.
func TestGzipDecodeMatchesStandardLibrary(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	content := func() []byte {
		p := make([]byte, rng.Intn(6000))
		for i := range p {
			switch {
			case i%1500 < 500: // runs, matched at distance 1
				p[i] = 'z'
			case i%1500 < 1000: // text, matched at longer distances
				p[i] = "the quick brown fox "[rng.Intn(20)]
			default:
				p[i] = byte(rng.Intn(256))
			}
		}
		return p
	}
	var streams [][]byte
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		for i := 0; i < 4; i++ {
			streams = append(streams, freshGzip(t, level, content()))
		}
	}
	_, page := versionedPair(t, 29)
	for _, level := range seedLevels {
		streams = append(streams, freshGzip(t, level, page))
	}
	streams = append(streams, gzipSeeds(t)...)
	cases := 0
	for _, s := range streams {
		matchOracle(t, s)
		for i := 0; i < 60; i++ {
			p := append([]byte(nil), s...)
			switch i % 5 {
			case 0: // one flipped bit
				p[rng.Intn(len(p))] ^= 1 << rng.Intn(8)
			case 1: // one replaced byte
				p[rng.Intn(len(p))] = byte(rng.Intn(256))
			case 2: // cut short
				p = p[:rng.Intn(len(p))]
			case 3: // trailing bytes
				p = append(p, s[:rng.Intn(12)]...)
			case 4: // a second member, possibly damaged
				p = append(p, streams[rng.Intn(len(streams))]...)
				p[len(s)+rng.Intn(len(p)-len(s))] ^= byte(rng.Intn(2))
			}
			matchOracle(t, p)
			cases++
		}
	}
	if cases < 3000 {
		t.Fatalf("ran %d damaged streams, want at least 3000", cases)
	}
}

// TestGzipDecodeHeaderEdges holds the header parser to compress/gzip at
// the limits random damage rarely reaches: its 512-byte string buffer,
// reserved flag bits, a wrong header CRC, short optional fields, and what
// may follow a complete member.
func TestGzipDecodeHeaderEdges(t *testing.T) {
	var body bytes.Buffer
	fw, err := flate.NewWriter(&body, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("header edge content")
	fw.Write(content)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	member := func(flg byte, fields ...[]byte) []byte {
		p := []byte{0x1f, 0x8b, 8, flg, 0, 0, 0, 0, 0, 255}
		p = append(p, bytes.Join(fields, nil)...)
		p = append(p, body.Bytes()...)
		p = binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(content))
		return binary.LittleEndian.AppendUint32(p, uint32(len(content)))
	}
	str := func(n int) []byte { return append(bytes.Repeat([]byte{'n'}, n), 0) }
	valid := member(0)
	for name, payload := range map[string][]byte{
		"empty":                    nil,
		"plain":                    valid,
		"name of 511 bytes":        member(flagName, str(511)),
		"name of 512 bytes":        member(flagName, str(512)),
		"comment of 511 bytes":     member(flagComment, str(511)),
		"comment of 600 bytes":     member(flagComment, str(600)),
		"name cut short":           member(flagName, str(511))[:300],
		"reserved flags":           member(0xe0),
		"wrong header CRC":         member(flagHdrCrc, []byte{0, 0}),
		"header CRC cut short":     member(flagHdrCrc, []byte{0, 0})[:11],
		"extra cut short":          member(flagExtra, []byte{100, 0})[:40],
		"not deflate":              append([]byte{0x1f, 0x8b, 7}, valid[3:]...),
		"member and 5 bytes":       append(append([]byte(nil), valid...), valid[:5]...),
		"member and a bad header":  append(append([]byte(nil), valid...), make([]byte, 10)...),
		"member and a cut trailer": valid[:len(valid)-1],
	} {
		t.Run(name, func(t *testing.T) { matchOracle(t, payload) })
	}
}

// TestGzipDecodeAllocatesOnlyOutput pins the decoder's allocation: the
// output slice and nothing else, its tables living on the stack.
func TestGzipDecodeAllocatesOnlyOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	page := corpusPages(t, 1)[0]
	g := NewGzip()
	payload, err := g.Encode(nil, page)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := g.Decode(nil, payload); err != nil {
			t.Fatal(err)
		}
	}); avg > 2 {
		t.Errorf("decoding a corpus page allocates %.1f times, want at most 2", avg)
	}
}
