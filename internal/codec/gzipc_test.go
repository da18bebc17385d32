package codec

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"fractal/internal/workload"
)

// corpusPages returns the first n pages of the default corpus, whose full
// size is workload.DefaultPages.
func corpusPages(t testing.TB, n int) [][]byte {
	t.Helper()
	cfg := workload.DefaultConfig(1)
	cfg.Pages = n
	c, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pages := make([][]byte, len(c.Pages))
	for i, p := range c.Pages {
		pages[i] = p.Bytes()
	}
	return pages
}

// freshGzip is the reference encoder the pooled one must match: a new
// writer per call.
func freshGzip(t testing.TB, level int, content []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGzipPooledEncodeMatchesFreshWriter pins that reusing a compressor
// changes no payload byte: at every level, each corpus page encodes through
// the pooled writers exactly as a fresh writer encodes it, and in sequence,
// so every page after the first goes through a writer the previous one
// left behind. Each payload also decodes back to its page. Under -race, which adds nothing to a single-goroutine
// sequence, the sweep keeps its first pages only.
func TestGzipPooledEncodeMatchesFreshWriter(t *testing.T) {
	n := workload.DefaultPages
	if raceEnabled {
		n = 4
	}
	pages := corpusPages(t, n)
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		level := level
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			t.Parallel()
			g, err := NewGzipLevel(level)
			if err != nil {
				t.Fatal(err)
			}
			for i, page := range pages {
				got, err := g.Encode(nil, page)
				if err != nil {
					t.Fatalf("page %d: %v", i, err)
				}
				if want := freshGzip(t, level, page); !bytes.Equal(got, want) {
					t.Fatalf("page %d: pooled encode is %d bytes, fresh writer %d, or differs in content", i, len(got), len(want))
				}
				if back, err := g.Decode(nil, got); err != nil || !bytes.Equal(back, page) {
					t.Fatalf("page %d: decoded to %d bytes (%v), want the %d-byte original", i, len(back), err, len(page))
				}
			}
		})
	}
}

// TestGzipDecodeAfterFailedDecode pins that a failed decode carries
// nothing into the next one: after each kind of broken payload, the valid
// one still decodes exactly, round after round.
func TestGzipDecodeAfterFailedDecode(t *testing.T) {
	g := NewGzip()
	_, page := versionedPair(t, 23)
	valid, err := g.Encode(nil, page)
	if err != nil {
		t.Fatal(err)
	}
	broken := func(mutate func(p []byte) []byte) []byte {
		return mutate(append([]byte(nil), valid...))
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"corrupt header", broken(func(p []byte) []byte { p[0] ^= 0xff; return p })},
		{"truncated stream", broken(func(p []byte) []byte { return p[:len(p)/2] })},
		{"corrupt deflate data", broken(func(p []byte) []byte { p[len(p)/2] ^= 0xff; return p })},
		{"bad CRC", broken(func(p []byte) []byte {
			crc := binary.LittleEndian.Uint32(p[len(p)-8:])
			binary.LittleEndian.PutUint32(p[len(p)-8:], crc+1)
			return p
		})},
	} {
		for round := 0; round < 3; round++ {
			if _, err := g.Decode(nil, c.payload); err == nil {
				t.Fatalf("%s: broken payload decoded without error", c.name)
			}
			got, err := g.Decode(nil, valid)
			if err != nil {
				t.Fatalf("%s, round %d: valid payload after a failure: %v", c.name, round, err)
			}
			if !bytes.Equal(got, page) {
				t.Fatalf("%s, round %d: valid payload decoded to %d bytes, want the %d-byte original", c.name, round, len(got), len(page))
			}
		}
	}
}

// TestGzipConcurrentSharedCodec runs many goroutines through one *Gzip, as
// the server's sessions and a deployed PAD's host table do. Every payload
// must match a fresh writer's and decode back to its page; under -race it
// also proves that no compressor is shared between two borrowers.
func TestGzipConcurrentSharedCodec(t *testing.T) {
	const workers = 8
	pages := corpusPages(t, workers)
	want := make([][]byte, len(pages))
	for i, page := range pages {
		want[i] = freshGzip(t, gzip.DefaultCompression, page)
	}
	g := NewGzip()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				i := (w + round) % len(pages)
				payload, err := g.Encode(nil, pages[i])
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(payload, want[i]) {
					errs <- fmt.Errorf("worker %d: page %d encoded differently from a fresh writer", w, i)
					return
				}
				got, err := g.Decode(nil, payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, pages[i]) {
					errs <- fmt.Errorf("worker %d: page %d did not round-trip", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
