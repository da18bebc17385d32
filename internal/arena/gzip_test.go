package arena

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"testing"
)

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errSink
	}
	f.n -= len(p)
	return len(p), nil
}

// compressible is input large enough to span several deflate blocks.
func compressible() []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < 96<<10; i++ {
		b.WriteString("series ")
		b.WriteByte(byte('a' + i%23))
		b.WriteByte(byte(i >> 3))
	}
	return b.Bytes()
}

func freshCompress(t *testing.T, level int, p []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := gzip.NewWriterLevel(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(p)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestGzipWriterReuseAfterMidStreamError pins that a writer released after
// its destination failed mid-stream compresses the next stream exactly as a
// fresh writer does.
func TestGzipWriterReuseAfterMidStreamError(t *testing.T) {
	in := compressible()
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		zw, err := AcquireGzipWriter(&failAfter{n: 100}, level)
		if err != nil {
			t.Fatal(err)
		}
		_, werr := zw.Write(in)
		if cerr := zw.Close(); werr == nil && cerr == nil {
			t.Fatalf("level %d: a failing destination reported no error", level)
		}
		zw.Release()

		var out bytes.Buffer
		zw, err = AcquireGzipWriter(&out, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(in); err != nil {
			t.Fatalf("level %d: write after a failed stream: %v", level, err)
		}
		if err := zw.Close(); err != nil {
			t.Fatalf("level %d: close after a failed stream: %v", level, err)
		}
		zw.Release()
		if !bytes.Equal(out.Bytes(), freshCompress(t, level, in)) {
			t.Errorf("level %d: reused writer's output differs from a fresh writer's", level)
		}
	}
}

func TestAcquireGzipWriterRejectsBadLevel(t *testing.T) {
	for _, level := range []int{gzip.HuffmanOnly - 1, gzip.BestCompression + 1} {
		if _, err := AcquireGzipWriter(io.Discard, level); err == nil {
			t.Errorf("level %d accepted", level)
		}
	}
}

// TestGzipSteadyStateAllocs pins the pools' promise: after warmup, a
// borrow/compress/release cycle allocates nothing of its own.
func TestGzipSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	in := bytes.Repeat([]byte("slice "), 100)
	var out Buffer
	defer out.Release()
	out.Write(freshCompress(t, gzip.BestSpeed, in))
	cycle := func() {
		out.Release()
		zw, err := AcquireGzipWriter(&out, gzip.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		zw.Write(in)
		zw.Close()
		zw.Release()
	}
	cycle() // warm the pool
	if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
		t.Errorf("gzip borrow cycle allocates %.1f per run, want 0", avg)
	}
}
