package arena

import (
	"bytes"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 0}, {1, 0}, {512, 0}, {513, 1}, {4096, 1}, {4097, 2},
		{64 << 10, 2}, {64<<10 + 1, 3}, {1 << 20, 3}, {1<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBufferRoundTrip(t *testing.T) {
	var w Buffer
	defer w.Release()
	var want bytes.Buffer
	chunk := bytes.Repeat([]byte("abc"), 100)
	for i := 0; i < 50; i++ {
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		want.Write(chunk)
		if err := w.WriteByte(byte(i)); err != nil {
			t.Fatal(err)
		}
		want.WriteByte(byte(i))
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatalf("Buffer diverged from bytes.Buffer after growth: %d vs %d bytes", w.Len(), want.Len())
	}
	w.Release()
	if w.Len() != 0 {
		t.Fatalf("Len after Release = %d", w.Len())
	}
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if string(w.Bytes()) != "x" {
		t.Fatalf("Bytes after Release+Write = %q", w.Bytes())
	}
}

// TestBufferExtendAndHolds: Extend lengthens the accumulated bytes in
// place, keeping them across a promotion to a larger class, and Holds
// reports exactly the non-empty slices that start in the storage.
func TestBufferExtendAndHolds(t *testing.T) {
	var w Buffer
	defer w.Release()
	if w.Holds([]byte("x")) {
		t.Fatal("an empty Buffer holds a foreign slice")
	}
	copy(w.Extend(3), "abc")
	b := w.Extend(5000) // past the 4 KB class
	if len(b) != 5003 || w.Len() != 5003 || string(b[:3]) != "abc" {
		t.Fatalf("Extend kept %q of %d bytes, want abc of 5003", b[:3], len(b))
	}
	for name, p := range map[string][]byte{"all": b, "a tail": b[5002:], "a middle": b[100:200]} {
		if !w.Holds(p) {
			t.Fatalf("Holds misses %s of the storage", name)
		}
	}
	for name, p := range map[string][]byte{"an empty slice": b[:0], "a copy": bytes.Clone(b), "nil": nil} {
		if w.Holds(p) {
			t.Fatalf("Holds reports %s", name)
		}
	}
}

func TestBufferOversized(t *testing.T) {
	var w Buffer
	big := make([]byte, classSizes[len(classSizes)-1]+1)
	if _, err := w.Write(big); err != nil {
		t.Fatal(err)
	}
	if w.Len() != len(big) {
		t.Fatalf("oversized write lost bytes: %d vs %d", w.Len(), len(big))
	}
	w.Release() // must not pool the oversized backing (covered by putBox)
	if w.Bytes() != nil {
		t.Fatal("Bytes non-nil after Release")
	}
}

func TestSessionBytesAndGrow(t *testing.T) {
	s := AcquireSession()
	b := s.Bytes(100)
	if len(b) != 0 || cap(b) < 100 {
		t.Fatalf("Bytes(100): len %d cap %d", len(b), cap(b))
	}
	b = append(b, bytes.Repeat([]byte("z"), 100)...)
	// Grow past the first class: contents must be preserved and the old
	// storage swapped out of the tracked set (no double-count at Release).
	before := len(s.boxes)
	b = s.Grow(b, 8<<10)
	if len(b) != 100 || cap(b) < 100+8<<10 {
		t.Fatalf("after Grow: len %d cap %d", len(b), cap(b))
	}
	for i := range b {
		if b[i] != 'z' {
			t.Fatalf("Grow lost contents at %d", i)
		}
	}
	if len(s.boxes) != before {
		t.Fatalf("Grow changed tracked box count %d -> %d (leak or double-track)", before, len(s.boxes))
	}
	s.Release()
	if len(s.boxes) != 0 {
		t.Fatalf("boxes not cleared by Release: %d", len(s.boxes))
	}
}

func TestSessionGrowForeignSlice(t *testing.T) {
	s := AcquireSession()
	defer s.Release()
	foreign := make([]byte, 3, 3)
	copy(foreign, "abc")
	grown := s.Grow(foreign, 1<<10)
	if string(grown[:3]) != "abc" {
		t.Fatalf("foreign Grow lost contents: %q", grown[:3])
	}
	if len(s.boxes) != 1 {
		t.Fatalf("foreign Grow must adopt the new storage into the session, boxes = %d", len(s.boxes))
	}
}

// TestSessionReuseIsolation pins that a released session's storage, once
// re-borrowed, starts empty — the recycling must not leak bytes between
// connections.
func TestSessionReuseIsolation(t *testing.T) {
	s := AcquireSession()
	b := s.Bytes(64)
	b = append(b, "secret"...)
	_ = b
	s.Release()
	s2 := AcquireSession()
	defer s2.Release()
	b2 := s2.Bytes(64)
	if len(b2) != 0 {
		t.Fatalf("recycled buffer not empty: len %d", len(b2))
	}
}

// TestSessionSteadyStateAllocs pins the arena promise: after warmup, a
// borrow/release cycle costs zero allocations. The bench-gate keeps this
// honest at the benchmark level; this is the direct unit pin.
func TestSessionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for i := 0; i < 8; i++ { // warm the pools
		s := AcquireSession()
		_ = s.Bytes(4096)
		_ = s.Bytes(512)
		s.Release()
	}
	avg := testing.AllocsPerRun(200, func() {
		s := AcquireSession()
		_ = s.Bytes(4096)
		_ = s.Bytes(512)
		s.Release()
	})
	if avg > 0 {
		t.Errorf("session borrow cycle allocates %.1f per run, want 0", avg)
	}
}

// TestBufferSteadyStateAllocs pins that rewriting a warmed Buffer — its
// storage released to the arena and borrowed back — allocates nothing.
func TestBufferSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	var w Buffer
	defer w.Release()
	payload := bytes.Repeat([]byte("p"), 600)
	w.Write(payload)
	avg := testing.AllocsPerRun(200, func() {
		w.Release()
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("warm Buffer write allocates %.1f per run, want 0", avg)
	}
}
