package rabin

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestPolDeg(t *testing.T) {
	if d := DefaultPol.Deg(); d != 53 {
		t.Fatalf("DefaultPol degree = %d, want 53", d)
	}
	if d := Pol(0).Deg(); d != -1 {
		t.Fatalf("zero polynomial degree = %d, want -1", d)
	}
	if d := Pol(1).Deg(); d != 0 {
		t.Fatalf("unit polynomial degree = %d, want 0", d)
	}
}

func TestPolyModReduces(t *testing.T) {
	p := DefaultPol
	for _, a := range []uint64{0, 1, uint64(p), uint64(p) << 3, ^uint64(0) >> 2} {
		m := polyMod(a, p)
		if bitsLen(m) > p.Deg() {
			t.Fatalf("polyMod(%#x) = %#x has degree >= %d", a, m, p.Deg())
		}
	}
	if polyMod(uint64(DefaultPol), DefaultPol) != 0 {
		t.Fatal("p mod p != 0")
	}
}

func bitsLen(x uint64) int {
	n := 0
	for x != 0 {
		x >>= 1
		n++
	}
	return n
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(Pol(0x7), 48); err == nil {
		t.Fatal("tiny polynomial accepted")
	}
	if _, err := NewTable(DefaultPol, 1); err == nil {
		t.Fatal("window 1 accepted")
	}
	if _, err := NewTable(DefaultPol, 500); err == nil {
		t.Fatal("oversized window accepted")
	}
	tab, err := NewTable(DefaultPol, 48)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Window() != 48 {
		t.Fatalf("Window() = %d, want 48", tab.Window())
	}
}

// TestNewTableSharedAcrossGoroutines pins the memo: concurrent chunkers of
// one configuration — deployed PADs loading on several sessions at once —
// get one table, and a different window gets its own.
func TestNewTableSharedAcrossGoroutines(t *testing.T) {
	const workers = 8
	got := make([]*Table, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tab, err := NewTable(DefaultPol, 40)
			if err != nil {
				t.Error(err)
			}
			got[i] = tab
		}(i)
	}
	wg.Wait()
	for i, tab := range got {
		if tab != got[0] {
			t.Fatalf("goroutine %d got table %p, goroutine 0 got %p", i, tab, got[0])
		}
	}
	other, err := NewTable(DefaultPol, 41)
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] || other.Window() != 41 {
		t.Fatalf("window 41 shares the window-40 table (Window() = %d)", other.Window())
	}
}

// tablesReference is the bit-serial table construction NewTable used before
// it switched to table steps: every entry is a chain of polynomial long
// divisions, with no table consulted while building one. It is the oracle
// NewTable's tables must equal.
func tablesReference(pol Pol, window int) (mod, out [256]uint64) {
	appendByteSlow := func(fp uint64, b byte) uint64 {
		return polyMod(fp<<8|uint64(b), pol)
	}
	for b := 0; b < 256; b++ {
		top := uint64(b) << pol.Deg()
		mod[b] = polyMod(top, pol) | top
		fp := appendByteSlow(0, byte(b))
		for i := 0; i < window-1; i++ {
			fp = appendByteSlow(fp, 0)
		}
		out[b] = fp
	}
	return mod, out
}

func TestNewTableMatchesBitSerialReference(t *testing.T) {
	check := func(pol Pol, window int) {
		t.Helper()
		tab, err := NewTable(pol, window)
		if err != nil {
			t.Fatalf("NewTable(%#x, %d): %v", uint64(pol), window, err)
		}
		mod, out := tablesReference(pol, window)
		if tab.mod != mod {
			t.Errorf("pol %#x window %d: mod table differs from reference", uint64(pol), window)
		}
		if tab.out != out {
			t.Errorf("pol %#x window %d: out table differs from reference", uint64(pol), window)
		}
	}
	for _, window := range []int{2, 16, 48, 256} {
		check(DefaultPol, window)
	}
	// Other polynomials across the supported degree range. The tables are
	// defined for any modulus, so these need not be irreducible.
	rng := rand.New(rand.NewSource(15))
	for deg := 16; deg <= 56; deg++ {
		pol := Pol(1<<deg | rng.Uint64()&(1<<deg-1))
		check(pol, 2+rng.Intn(255))
	}
}

// digest is the per-byte rolling fingerprint over a ring buffer of the last
// Window() bytes — the form Chunker.findCut's bulk loop replaced. No product
// code rolls this way any more; it stays here as the reference the bulk
// loop's fingerprints and chunk boundaries must equal (splitReference in
// bulk_test.go).
type digest struct {
	t    *Table
	fp   uint64
	win  []byte
	wpos int
}

// newDigest returns a rolling digest over an initially all-zero window.
func newDigest(t *Table) *digest {
	return &digest{t: t, win: make([]byte, t.window)}
}

// Reset returns the digest to its initial all-zero-window state.
func (d *digest) Reset() {
	d.fp = 0
	d.wpos = 0
	for i := range d.win {
		d.win[i] = 0
	}
}

// Roll shifts b into the window, expiring the oldest byte, and returns the
// updated fingerprint.
func (d *digest) Roll(b byte) uint64 {
	out := d.win[d.wpos]
	d.win[d.wpos] = b
	d.wpos++
	if d.wpos == len(d.win) {
		d.wpos = 0
	}
	d.fp ^= d.t.out[out]
	d.fp = d.fp<<8 | uint64(b)
	d.fp ^= d.t.mod[d.fp>>d.t.deg]
	return d.fp
}

// Sum64 returns the current fingerprint.
func (d *digest) Sum64() uint64 { return d.fp }

// fingerprintDirect computes the fingerprint of data without rolling:
// append every byte, expire none.
func fingerprintDirect(t *Table, data []byte) uint64 {
	fp := uint64(0)
	for _, b := range data {
		fp = fp<<8 | uint64(b)
		fp ^= t.mod[fp>>t.deg]
	}
	return fp
}

// The heart of the rolling property: after rolling any byte sequence
// through the digest, the fingerprint equals the direct fingerprint of the
// last `window` bytes (with leading zeros when fewer have been rolled).
func TestRollingMatchesDirect(t *testing.T) {
	const window = 16
	tab, err := NewTable(DefaultPol, window)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 300)
	rng.Read(data)
	d := newDigest(tab)
	for i := range data {
		got := d.Roll(data[i])
		// Window content: last `window` bytes ending at i, zero-padded on
		// the left for early positions.
		win := make([]byte, window)
		for j := 0; j < window; j++ {
			src := i - window + 1 + j
			if src >= 0 {
				win[j] = data[src]
			}
		}
		want := fingerprintDirect(tab, win)
		if got != want {
			t.Fatalf("position %d: rolling fp %#x != direct fp %#x", i, got, want)
		}
	}
}

func TestDigestReset(t *testing.T) {
	tab, err := NewTable(DefaultPol, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest(tab)
	for _, b := range []byte("hello world") {
		d.Roll(b)
	}
	first := d.Sum64()
	d.Reset()
	if d.Sum64() != 0 {
		t.Fatal("Reset did not zero fingerprint")
	}
	for _, b := range []byte("hello world") {
		d.Roll(b)
	}
	if d.Sum64() != first {
		t.Fatal("digest not deterministic after Reset")
	}
}

// Property: the rolling fingerprint depends only on the window content,
// never on earlier history.
func TestRollingHistoryIndependenceProperty(t *testing.T) {
	const window = 8
	tab, err := NewTable(DefaultPol, window)
	if err != nil {
		t.Fatal(err)
	}
	f := func(prefixA, prefixB, tail []byte) bool {
		if len(tail) < window {
			tail = append(tail, make([]byte, window-len(tail))...)
		}
		da, db := newDigest(tab), newDigest(tab)
		for _, b := range prefixA {
			da.Roll(b)
		}
		for _, b := range prefixB {
			db.Roll(b)
		}
		var fa, fb uint64
		for _, b := range tail {
			fa = da.Roll(b)
			fb = db.Roll(b)
		}
		return fa == fb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testConfig() ChunkerConfig {
	return ChunkerConfig{
		Pol:     DefaultPol,
		Window:  16,
		MinSize: 32,
		MaxSize: 512,
		Mask:    (1 << 6) - 1, // ~64-byte average for small test inputs
		Magic:   0x11,
	}
}

func TestChunkerConfigValidation(t *testing.T) {
	bad := []ChunkerConfig{
		{Pol: DefaultPol, Window: 1, MinSize: 32, MaxSize: 64, Mask: 3},
		{Pol: DefaultPol, Window: 16, MinSize: 8, MaxSize: 64, Mask: 3},
		{Pol: DefaultPol, Window: 16, MinSize: 64, MaxSize: 32, Mask: 3},
		{Pol: DefaultPol, Window: 16, MinSize: 32, MaxSize: 64, Mask: 0},
		{Pol: DefaultPol, Window: 16, MinSize: 32, MaxSize: 64, Mask: 3, Magic: 8},
	}
	for i, cfg := range bad {
		if _, err := NewChunker(cfg); err == nil {
			t.Errorf("case %d: invalid chunker config accepted", i)
		}
	}
	if err := DefaultChunkerConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestSplitReconstructs(t *testing.T) {
	ch, err := NewChunker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 10000)
	rng.Read(data)
	chunks := ch.Split(data)
	if len(chunks) < 2 {
		t.Fatalf("got %d chunks for 10000 random bytes, want several", len(chunks))
	}
	var rebuilt []byte
	prevEnd := 0
	for i, c := range chunks {
		if c.Offset != prevEnd {
			t.Fatalf("chunk %d offset %d, want contiguous %d", i, c.Offset, prevEnd)
		}
		if c.Length < 1 {
			t.Fatalf("chunk %d has length %d", i, c.Length)
		}
		cfg := ch.Config()
		if c.Length > cfg.MaxSize {
			t.Fatalf("chunk %d length %d exceeds max %d", i, c.Length, cfg.MaxSize)
		}
		if i < len(chunks)-1 && c.Length < cfg.MinSize {
			t.Fatalf("non-final chunk %d length %d below min %d", i, c.Length, cfg.MinSize)
		}
		rebuilt = append(rebuilt, data[c.Offset:c.Offset+c.Length]...)
		prevEnd = c.Offset + c.Length
	}
	if !bytes.Equal(rebuilt, data) {
		t.Fatal("concatenated chunks do not reconstruct input")
	}
}

func TestSplitEmptyAndTiny(t *testing.T) {
	ch, err := NewChunker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.Split(nil); len(got) != 0 {
		t.Fatalf("Split(nil) = %d chunks, want 0", len(got))
	}
	got := ch.Split([]byte{1, 2, 3})
	if len(got) != 1 || got[0].Length != 3 {
		t.Fatalf("Split(tiny) = %+v, want single 3-byte chunk", got)
	}
}

// The content-defined property the paper relies on: inserting bytes near
// the start shifts content, but chunk boundaries resynchronize so most
// chunks keep identical content (identified by their bytes, not offsets).
func TestSplitResynchronizesAfterInsertion(t *testing.T) {
	ch, err := NewChunker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	orig := make([]byte, 20000)
	rng.Read(orig)
	ins := []byte("INSERTED-BYTES")
	mod := append(append(append([]byte(nil), orig[:100]...), ins...), orig[100:]...)

	digests := func(data []byte) map[string]bool {
		m := map[string]bool{}
		for _, c := range ch.Split(data) {
			m[string(data[c.Offset:c.Offset+c.Length])] = true
		}
		return m
	}
	oldSet := digests(orig)
	shared := 0
	newChunks := ch.Split(mod)
	for _, c := range newChunks {
		if oldSet[string(mod[c.Offset:c.Offset+c.Length])] {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(newChunks)); frac < 0.8 {
		t.Fatalf("only %.0f%% of chunks survived an insertion; content-defined chunking broken", frac*100)
	}
}

// Property: Split always reconstructs and respects the max-size bound.
func TestSplitReconstructionProperty(t *testing.T) {
	ch, err := NewChunker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte) bool {
		chunks := ch.Split(data)
		var total int
		for _, c := range chunks {
			if c.Length <= 0 || c.Length > ch.Config().MaxSize {
				return false
			}
			if c.Offset != total {
				return false
			}
			total += c.Length
		}
		return total == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitDeterministic(t *testing.T) {
	ch, err := NewChunker(DefaultChunkerConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 100000)
	rng.Read(data)
	a := ch.Split(data)
	b := ch.Split(data)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDefaultChunkerAverageSize(t *testing.T) {
	ch, err := NewChunker(DefaultChunkerConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 1<<20)
	rng.Read(data)
	chunks := ch.Split(data)
	avg := len(data) / len(chunks)
	// Expected ~768 B (9-bit mask + 256B min); accept a generous band.
	if avg < 384 || avg > 1536 {
		t.Fatalf("average chunk = %d bytes, want ~768B", avg)
	}
}

func BenchmarkRoll(b *testing.B) {
	tab, err := NewTable(DefaultPol, 48)
	if err != nil {
		b.Fatal(err)
	}
	d := newDigest(tab)
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(6)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range data {
			d.Roll(c)
		}
	}
}

func BenchmarkSplit(b *testing.B) {
	ch, err := NewChunker(DefaultChunkerConfig())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Split(data)
	}
}
