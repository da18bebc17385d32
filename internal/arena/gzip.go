package arena

import (
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// The compressor pools are the arena's typed pools beside the byte
// classes. A flate compressor carries about 800 KB of hash chains and
// window, far more than the data it usually handles, so building one per
// call dominated the allocation of every gzip encode. The pools keep one
// compressor per concurrent user instead. (Decoding needs no pool: the
// codec's inflater keeps its state on the stack.)
//
// A borrower must not retain buffers through the compressor: Release
// rebinds a writer to io.Discard before pooling it, so an idle pooled
// compressor references no caller storage.

// gzipWriterPools holds one pool per compression level, indexed by
// level-gzip.HuffmanOnly. A writer's level is fixed at construction and
// survives Reset, so levels never share a pool, not even -1 and 6, which
// compress alike.
var gzipWriterPools [gzip.BestCompression - gzip.HuffmanOnly + 1]sync.Pool

func init() {
	for i := range gzipWriterPools {
		level := i + gzip.HuffmanOnly
		gzipWriterPools[i] = sync.Pool{New: func() interface{} {
			w, err := gzip.NewWriterLevel(io.Discard, level)
			if err != nil {
				panic(err) // unreachable: every index is a valid level
			}
			return &GzipWriter{w: w, level: level}
		}}
	}
}

// GzipWriter is a gzip compressor borrowed from the arena. It is
// single-goroutine, like a Buffer, and must be returned with Release.
type GzipWriter struct {
	w     *gzip.Writer
	level int
}

// AcquireGzipWriter borrows a gzip writer at the given level, reset onto
// dst. Its output is byte-identical to a fresh gzip.NewWriterLevel
// writer's over the same input.
func AcquireGzipWriter(dst io.Writer, level int) (*GzipWriter, error) {
	if level < gzip.HuffmanOnly || level > gzip.BestCompression {
		return nil, fmt.Errorf("arena: gzip level %d out of range", level)
	}
	zw := gzipWriterPools[level-gzip.HuffmanOnly].Get().(*GzipWriter)
	zw.w.Reset(dst)
	return zw, nil
}

// Write implements io.Writer, compressing p into the destination.
func (zw *GzipWriter) Write(p []byte) (int, error) { return zw.w.Write(p) }

// Close flushes the compressed stream and writes the gzip trailer. It does
// not release the writer.
func (zw *GzipWriter) Close() error { return zw.w.Close() }

// Release rebinds the writer to io.Discard, dropping its reference to the
// destination and any error state, and returns it to its level's pool. The
// writer must not be used afterwards.
func (zw *GzipWriter) Release() {
	zw.w.Reset(io.Discard)
	gzipWriterPools[zw.level-gzip.HuffmanOnly].Put(zw)
}
