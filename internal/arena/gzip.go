package arena

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// The compressor pools are the arena's typed pools beside the byte
// classes. A gzip engine is far larger than the data it usually handles —
// a flate compressor carries about 800 KB of hash chains and window, a
// decompressor about 40 KB of window and Huffman tables — so building one
// per call dominated the allocation of every gzip encode and decode. The
// pools keep one engine per concurrent user instead.
//
// A borrower must not retain buffers through the engine: Release rebinds a
// writer to io.Discard and a reader to an empty source before pooling it,
// so an idle pooled engine references no caller storage.

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

// GzipReader is a gzip decompressor over an in-memory payload, borrowed
// from the arena. It owns the payload's byte reader, so a borrow allocates
// neither that reader nor the bufio.Reader gzip would wrap a plain
// io.Reader in. It is single-goroutine and must be returned with Release.
type GzipReader struct {
	r   gzip.Reader
	src bytes.Reader
}

var gzipReaderPool = sync.Pool{New: func() interface{} { return new(GzipReader) }}

// AcquireGzipReader borrows a gzip reader positioned after payload's first
// member header. A payload whose header does not parse returns the header
// error, with the reader already back in the pool.
func AcquireGzipReader(payload []byte) (*GzipReader, error) {
	zr := gzipReaderPool.Get().(*GzipReader)
	zr.src.Reset(payload)
	if err := zr.r.Reset(&zr.src); err != nil {
		zr.Release()
		return nil, err
	}
	return zr, nil
}

// Read implements io.Reader, decompressing every member of the payload in
// turn and checking each member's CRC-32 and size at its end.
func (zr *GzipReader) Read(p []byte) (int, error) { return zr.r.Read(p) }

// Release drops the reader's reference to the payload and returns it to
// the pool. Any error state is cleared by the next borrow's reset. The
// reader must not be used afterwards.
func (zr *GzipReader) Release() {
	zr.src.Reset(nil)
	gzipReaderPool.Put(zr)
}
