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

// TestSessionBuffersGrowAndRelease pins that a session's two buffers are
// its own, grow through the classes keeping their contents, and are empty
// with no storage after Release.
func TestSessionBuffersGrowAndRelease(t *testing.T) {
	s := AcquireSession()
	read, body := s.Buffers()
	if r2, b2 := s.Buffers(); r2 != read || b2 != body || read == body {
		t.Fatal("Buffers must return the session's own two distinct buffers")
	}
	if got := len(read.Extend(4096)); got != 4096 {
		t.Fatalf("read window Extend(4096) has %d bytes", got)
	}
	body.Write(bytes.Repeat([]byte("z"), 100))
	// Grow past the first class: contents must be preserved.
	b := body.Extend(8 << 10)
	if len(b) != 100+8<<10 || !bytes.Equal(b[:100], bytes.Repeat([]byte("z"), 100)) {
		t.Fatalf("body growth lost contents: len %d", len(b))
	}
	s.Release()
	if read.Bytes() != nil || body.Bytes() != nil {
		t.Fatal("Release left storage in the session's buffers")
	}
}

// TestSessionReuseIsolation pins that a released session's storage, once
// re-borrowed, starts empty — the recycling must not leak bytes between
// connections.
func TestSessionReuseIsolation(t *testing.T) {
	s := AcquireSession()
	_, body := s.Buffers()
	body.WriteString("secret")
	s.Release()
	s2 := AcquireSession()
	defer s2.Release()
	_, body2 := s2.Buffers()
	body2.WriteByte('x')
	if got := string(body2.Bytes()); got != "x" {
		t.Fatalf("recycled body buffer holds %q, want only the byte written since", got)
	}
}

// TestSessionSteadyStateAllocs pins the arena promise: after warmup, a
// session's acquire, read-window and body borrow, and release cycle costs
// zero allocations. The bench-gate keeps this honest at the benchmark
// level; this is the direct unit pin.
func TestSessionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	cycle := func() {
		s := AcquireSession()
		read, body := s.Buffers()
		read.Extend(4096)
		body.Extend(512)
		s.Release()
	}
	for i := 0; i < 8; i++ { // warm the pools
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
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
