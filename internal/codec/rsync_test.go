package codec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWeakSumRolling(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := make([]byte, 500)
	rng.Read(data)
	const n = 64
	sum := weakSum(data[:n])
	for i := 1; i+n <= len(data); i++ {
		sum = roll(sum, data[i-1], data[i+n-1], n)
		if want := weakSum(data[i : i+n]); sum != want {
			t.Fatalf("rolled sum at %d = %#x, direct = %#x", i, sum, want)
		}
	}
}

func TestRsyncRoundTrip(t *testing.T) {
	r, err := NewRsync(128)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	old := make([]byte, 10000)
	rng.Read(old)
	// New version: a shift (insertion at front) plus a tail edit — the
	// case Bitmap cannot handle but rsync must.
	cur := append([]byte("INSERTED PREFIX"), old...)
	cur[len(cur)-1] ^= 0xFF
	payload, err := r.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Decode(old, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("round trip mismatch")
	}
	if len(payload) > len(cur)/4 {
		t.Fatalf("rsync sent %d of %d bytes after a shift; sliding match failed", len(payload), len(cur))
	}
}

func TestRsyncColdAndEmpty(t *testing.T) {
	r, err := NewRsync(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, cur := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte("ab"), 1000)} {
		payload, err := r.Encode(nil, cur)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Decode(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("cold round trip mismatch for %d bytes", len(cur))
		}
	}
}

func TestRsyncIdenticalVersionsNearlyFree(t *testing.T) {
	r, err := NewRsync(512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	data := make([]byte, 64*1024)
	rng.Read(data)
	payload, err := r.Encode(data, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > len(data)/20 {
		t.Fatalf("identical versions cost %d bytes", len(payload))
	}
	got, err := r.Decode(data, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("identity round trip mismatch")
	}
}

func TestRsyncValidation(t *testing.T) {
	if _, err := NewRsync(4); err == nil {
		t.Fatal("tiny block accepted")
	}
	if _, err := NewRsync(2 << 20); err == nil {
		t.Fatal("huge block accepted")
	}
	r, err := NewRsync(512)
	if err != nil {
		t.Fatal(err)
	}
	if r.blockSize != 512 {
		t.Fatalf("block size = %d", r.blockSize)
	}
	if got := r.UpstreamBytes(make([]byte, 1024)); got != 2*24 {
		t.Fatalf("upstream = %d, want 48", got)
	}
	if got := r.UpstreamBytes(make([]byte, 1000)); got != 24 {
		t.Fatalf("upstream for partial block = %d, want 24 (full blocks only)", got)
	}
}

func TestRsyncDecodeRejectsCorrupt(t *testing.T) {
	r, err := NewRsync(64)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte("x"), 640)
	cur := bytes.Repeat([]byte("y"), 640)
	payload, err := r.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Decode(old, payload[:len(payload)/2]); err == nil {
		t.Error("truncated payload decoded")
	}
	if _, err := r.Decode(old[:100], payload); err == nil {
		t.Error("wrong old version accepted")
	}
	if _, err := r.Decode(old, []byte("junk")); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := r.Decode(old, append(payload, 1)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Property: rsync round-trips arbitrary old/new pairs.
func TestRsyncRoundTripProperty(t *testing.T) {
	r, err := NewRsync(32)
	if err != nil {
		t.Fatal(err)
	}
	f := func(old, cur []byte) bool {
		payload, err := r.Encode(old, cur)
		if err != nil {
			return false
		}
		got, err := r.Decode(old, payload)
		return err == nil && bytes.Equal(got, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: a weak-checksum collision with a different strong hash must
// not produce a false block match (inject colliding windows).
func TestRsyncWeakCollisionSafety(t *testing.T) {
	r, err := NewRsync(16)
	if err != nil {
		t.Fatal(err)
	}
	// Two different 16-byte blocks with equal weak sums: swap two adjacent
	// equal-sum pairs. weakSum is permutation-sensitive via b, so craft via
	// brute force.
	rng := rand.New(rand.NewSource(34))
	base := make([]byte, 16)
	rng.Read(base)
	var collide []byte
	for tries := 0; tries < 200000; tries++ {
		cand := make([]byte, 16)
		rng.Read(cand)
		if weakSum(cand) == weakSum(base) && !bytes.Equal(cand, base) {
			collide = cand
			break
		}
	}
	if collide == nil {
		t.Skip("no collision found in budget (probabilistic)")
	}
	old := append([]byte(nil), base...)
	cur := append([]byte(nil), collide...)
	payload, err := r.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Decode(old, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("weak-checksum collision corrupted reconstruction")
	}
}

func BenchmarkRsyncEncode(b *testing.B) {
	r, err := NewRsync(512)
	if err != nil {
		b.Fatal(err)
	}
	old, cur := versionedPair(b, 35)
	b.SetBytes(int64(len(cur)))
	for i := 0; i < b.N; i++ {
		if _, err := r.Encode(old, cur); err != nil {
			b.Fatal(err)
		}
	}
}
