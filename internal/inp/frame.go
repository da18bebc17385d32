package inp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"

	"fractal/internal/arena"
)

// FrameWriter is the one place INP frames are assembled. It coalesces
// consecutive frames into one write: frames queued with WriteMessage are
// built contiguously in an arena buffer and nothing reaches the stream
// until Flush, which issues a single vectored write (writev via
// net.Buffers) on TCP and a single coalesced Write on any other stream.
// Large byte-slice fields are spliced as their own vector entries instead
// of being copied into the assembly buffer.
//
// A FrameWriter serves one connection and is not safe for concurrent use.
// A batch is byte-identical to the same frames flushed one at a time
// (FuzzFrameBatch), and a writer reused across flushes writes what a fresh
// one would (FuzzWriteMessagePooledEquivalence).
type FrameWriter struct {
	w   io.Writer
	tcp *net.TCPConn // non-nil when vectored writes are available
	// es holds the queued batch. Flush returns its buffer to the arena, so
	// idle connections pin no assembly storage.
	es     encodeState
	nb     net.Buffers // reusable backing for the vectored flush
	queued int
}

// frameVec marks a splice point in the queued byte stream: the internal
// assembly buffer up to offset end is followed by the external slice ext.
type frameVec struct {
	end int
	ext []byte
}

// encodeState is the assembly state of one write batch: a buffer the codec
// descriptions append frames (header + body) to, plus the splice points of
// byte slices queued by reference. Its storage comes from the arena and is
// returned on release, so the retention policy (size classes, oversized
// frames dropped) lives in one place.
type encodeState struct {
	buf    arena.Buffer
	vecs   []frameVec
	extLen int // total spliced (zero-copy) bytes queued
}

// release returns the batch's storage to the arena and drops its splice
// references, so a flushed writer pins neither.
func (e *encodeState) release() {
	e.buf.Release()
	clear(e.vecs[:cap(e.vecs)])
	e.vecs, e.extLen = e.vecs[:0], 0
}

// NewFrameWriter returns a batching frame writer over w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	fw := &FrameWriter{}
	fw.init(w)
	return fw
}

// init prepares an embedded FrameWriter in place.
func (fw *FrameWriter) init(w io.Writer) {
	fw.w = w
	if tc, ok := w.(*net.TCPConn); ok {
		fw.tcp = tc
	}
}

var zeroHeader [headerLen]byte

// WriteMessage queues one frame; nothing reaches the stream until Flush.
// The body must be the header type's struct, by value or by pointer; the
// header is stamped as given. On error every byte the half-built frame
// queued (splice vectors included) is rolled back, so a batch of
// already-queued frames survives intact.
func (fw *FrameWriter) WriteMessage(h Header, body interface{}) error {
	if h.Type == MsgInvalid || h.Type >= msgMax {
		return fmt.Errorf("inp: cannot write message of type %v", h.Type)
	}
	wb, ok := body.(wireBody)
	if !ok || wb.wireType() != h.Type {
		return fmt.Errorf("inp: no codec encodes a %v body of type %T", h.Type, body)
	}
	es := &fw.es
	start, vecs, ext := es.buf.Len(), len(es.vecs), es.extLen
	es.buf.Write(zeroHeader[:]) // reserve the header slot
	wb.appendWire(es)
	n := es.buf.Len() - start - headerLen + (es.extLen - ext)
	if n > MaxBody {
		es.buf.SetBytes(es.buf.Bytes()[:start])
		es.vecs = es.vecs[:vecs]
		es.extLen = ext
		return fmt.Errorf("inp: %v body of %d bytes exceeds limit", h.Type, n)
	}
	hdr := es.buf.Bytes()[start : start+headerLen]
	copy(hdr[0:4], magic[:])
	hdr[4] = h.Version
	hdr[5] = uint8(h.Type)
	binary.BigEndian.PutUint32(hdr[8:12], h.Seq)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(n))
	fw.queued++
	return nil
}

// splice records p as a zero-copy vector entry following everything
// queued so far. p must stay unmodified until Flush returns.
func (e *encodeState) splice(p []byte) {
	e.vecs = append(e.vecs, frameVec{end: e.buf.Len(), ext: p})
	e.extLen += len(p)
}

// Flush writes every queued frame in one call and releases the assembly
// buffer back to the arena. Flushing an empty writer is a no-op.
func (fw *FrameWriter) Flush() error {
	n := fw.queued
	fw.queued = 0
	es := &fw.es
	defer es.release()
	if n == 0 {
		return nil
	}
	var err error
	if len(es.vecs) == 0 {
		_, err = fw.w.Write(es.buf.Bytes())
	} else {
		err = fw.flushVectored(es)
	}
	if err != nil {
		return fmt.Errorf("inp: flushing %d queued frame(s): %w", n, err)
	}
	return nil
}

// flushVectored interleaves the internal buffer segments with the spliced
// slices. On TCP the segments go out as one writev; elsewhere they are
// coalesced into scratch arena storage for a single Write.
func (fw *FrameWriter) flushVectored(es *encodeState) error {
	b := es.buf.Bytes()
	fw.nb = fw.nb[:0]
	off := 0
	for _, v := range es.vecs {
		if v.end > off {
			fw.nb = append(fw.nb, b[off:v.end])
			off = v.end
		}
		if len(v.ext) > 0 {
			fw.nb = append(fw.nb, v.ext)
		}
	}
	if off < len(b) {
		fw.nb = append(fw.nb, b[off:])
	}
	if fw.tcp != nil {
		// net.Buffers.WriteTo consumes its receiver slice, so hand it a
		// view; fw.nb's backing array stays reusable for the next flush.
		bufs := fw.nb
		_, err := bufs.WriteTo(fw.tcp)
		return err
	}
	var scratch arena.Buffer
	for _, seg := range fw.nb {
		scratch.Write(seg)
	}
	_, err := fw.w.Write(scratch.Bytes())
	scratch.Release()
	return err
}

// maxBodyReserve caps how much body memory is allocated ahead of bytes
// actually arriving: a header may claim up to MaxBody, but the buffer only
// grows in maxBodyReserve steps as the stream delivers, so a hostile
// header alone cannot size a 64 MB allocation.
const maxBodyReserve = 1 << 20

// parseHeader validates a raw header and returns it with the body length.
// Only Version2 is accepted: a frame of any other version is refused
// before its body is read.
func parseHeader(hdr []byte) (Header, uint32, error) {
	if [4]byte(hdr[0:4]) != magic {
		return Header{}, 0, fmt.Errorf("inp: bad magic %q", hdr[0:4])
	}
	h := Header{Version: hdr[4], Type: MsgType(hdr[5]), Seq: binary.BigEndian.Uint32(hdr[8:12])}
	if h.Version != Version2 {
		return Header{}, 0, fmt.Errorf("inp: unsupported protocol version %d", h.Version)
	}
	if h.Type == MsgInvalid || h.Type >= msgMax {
		return Header{}, 0, fmt.Errorf("inp: unknown message type %d", hdr[5])
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > MaxBody {
		return Header{}, 0, fmt.Errorf("inp: %v body of %d bytes exceeds limit", h.Type, n)
	}
	return h, n, nil
}

// ReadMessage reads one framed message, returning its header and raw body
// in freshly allocated storage.
func ReadMessage(r io.Reader) (Header, []byte, error) {
	return readFrame(&bufReader{src: r}, nil, nil, nil) // no buffer: nothing is read ahead of the frame
}

// readFrame is the one frame reader: it parses and validates the header,
// then reads the body, growing its storage in maxBodyReserve steps as bytes
// arrive. The storage is one of three: into, a caller's arena buffer whose
// accumulated bytes become the body; else body[:0] grown through sess when
// it is session-scoped (body must then be nil or an earlier readFrame
// result on the same session); else body[:0] grown on the heap. The
// returned slice is the possibly regrown storage even on error, so a
// caller reusing it keeps it. A failure before the header's first byte is
// returned unformatted and kept as r.boundaryErr; any later one is wrapped
// with where it struck.
func readFrame(r *bufReader, body []byte, sess *arena.Session, into *arena.Buffer) (Header, []byte, error) {
	body = body[:0]
	if into != nil {
		body = into.Bytes()[:0]
		into.SetBytes(body)
	}
	hdr := r.hdr[:] // a local array would be moved to the heap by src.Read, once per frame
	if n, err := io.ReadFull(r, hdr); err != nil {
		if n == 0 {
			r.boundaryErr = err
			return Header{}, body, err
		}
		return Header{}, body, fmt.Errorf("inp: reading header: %w", err)
	}
	h, n, err := parseHeader(hdr)
	if err != nil {
		return Header{}, body, err
	}
	for len(body) < int(n) {
		step := min(int(n)-len(body), maxBodyReserve)
		off := len(body)
		switch {
		case into != nil:
			body = into.Extend(step)
		case sess != nil:
			body = sess.Grow(body, step)[:off+step]
		default:
			body = slices.Grow(body, step)[:off+step]
		}
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return Header{}, body[:0], fmt.Errorf("inp: reading %v body: %w", h.Type, err)
		}
	}
	return h, body, nil
}

// readBufSize is the per-connection buffered-read window: one mid-class
// arena borrow, large enough that a pipelined negotiation burst — or a
// frame's header and small body — arrives in a single fill.
const readBufSize = 4 << 10

// bufReader is the minimal buffered reader every Conn reads through, over
// storage the Conn supplies (arena-borrowed on a session Conn, part of the
// Conn itself otherwise). Unlike bufio.Reader it exposes how many undrained
// bytes sit in its buffer, which the serving path uses to detect pipelined
// requests.
type bufReader struct {
	src  io.Reader
	buf  []byte
	r, w int
	hdr  [headerLen]byte // readFrame's header scratch
	// boundaryErr is the last failure between frames readFrame returned.
	boundaryErr error
}

// buffered reports the undrained byte count.
func (b *bufReader) buffered() int { return b.w - b.r }

// Read refills from src at most once per call; reads at least as large as
// the buffer bypass it entirely so large bodies stream straight through.
func (b *bufReader) Read(p []byte) (int, error) {
	if b.r == b.w {
		if len(p) >= len(b.buf) {
			return b.src.Read(p)
		}
		n, err := b.src.Read(b.buf)
		if n <= 0 {
			return 0, err
		}
		b.r, b.w = 0, n
	}
	n := copy(p, b.buf[b.r:b.w])
	b.r += n
	return n, nil
}
