package inp

import (
	"errors"
	"fmt"
	"io"
	"time"

	"fractal/internal/arena"
)

// PeerError is an in-band MsgError reported by the peer. It is a typed
// error so transports can tell an application-level refusal (the stream
// stays framed and usable) from a transport-level failure (the stream
// position is unknown and the connection must be abandoned).
type PeerError struct {
	Message string
}

// Error preserves the historical "inp: peer error: ..." rendering.
func (e *PeerError) Error() string {
	if e.Message == "" {
		return "inp: peer error (unparseable body)"
	}
	return "inp: peer error: " + e.Message
}

// ErrSeqMismatch reports a reply whose sequence number is not the next
// one expected from the peer: a stale, duplicated, or replayed frame.
var ErrSeqMismatch = errors.New("inp: sequence mismatch")

// deadlineRW is the subset of net.Conn needed for bounded calls. A plain
// io.ReadWriter (in-process pipe, bytes.Buffer) simply has no deadline
// support and calls stay unbounded, as before.
type deadlineRW interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// Conn is a sequential INP endpoint over a byte stream: it stamps outgoing
// sequence numbers, verifies that inbound sequence numbers advance by
// exactly one per frame (rejecting stale or duplicated frames), and offers
// a call helper for the request/response pattern of Figure 4. Writes are
// batched through a FrameWriter: Queue stages frames and Flush emits the
// burst as one vectored write, so a pipelined phase costs one syscall per
// direction (Send is Queue+Flush for the single-frame case). Reads go
// through one buffered reader, so a burst of small frames costs one read
// and the Conn must be the only reader of its stream. A Conn serves one
// session and is not safe for concurrent use.
type Conn struct {
	rw      io.ReadWriter
	fw      FrameWriter
	brd     bufReader
	sess    *arena.Session
	body    []byte // session-scoped reusable body buffer
	seq     uint32
	peerSeq uint32
	// timeout, when nonzero and rw supports deadlines, bounds each
	// individual read and write so a stalled peer cannot block a call
	// forever.
	timeout time.Duration
	// armedR/armedW record that this Conn armed an absolute deadline on rw
	// that it has not yet cleared, so disabling the bound (SetTimeout(0))
	// knows whether there is a stale deadline to remove — and never touches
	// deadlines some other owner (a server idle policy) armed itself.
	armedR, armedW bool
}

// NewConn wraps a byte stream (typically a dialled net.Conn). Nothing else
// may read rw afterwards: bytes the Conn has buffered would be lost to it.
// Each Recv allocates its frame body, which the decoded message then owns
// (see RecvInto). The read buffer is part of the Conn's one allocation.
func NewConn(rw io.ReadWriter) *Conn {
	c := &struct {
		Conn
		buf [readBufSize]byte
	}{Conn: Conn{rw: rw}}
	c.fw.init(rw)
	c.brd = bufReader{src: rw, buf: c.buf[:]}
	return &c.Conn
}

// NewConnSession is NewConn over session-scoped storage: the read buffer
// is borrowed from sess, and message bodies reuse one arena buffer across
// Recvs, so the raw slice returned by Recv is valid only until the next
// Recv and decoded messages copy out of it. The caller owns sess and
// releases it after the Conn is abandoned.
func NewConnSession(rw io.ReadWriter, sess *arena.Session) *Conn {
	c := &Conn{rw: rw, sess: sess}
	c.fw.init(rw)
	b := sess.Bytes(readBufSize)
	//fractal:allow hotpath — the Conn and its session share a lifetime; the caller releases sess only after abandoning the Conn
	c.brd = bufReader{src: rw, buf: b[:readBufSize]}
	return c
}

// SetTimeout arms a per-operation I/O deadline: every subsequent send or
// receive must complete within d. It is a no-op if the underlying stream
// has no deadline support. Zero disables the bound and clears any
// deadline a previous bounded operation left armed on the stream, so a
// later long-running call cannot fail against a stale absolute deadline.
func (c *Conn) SetTimeout(d time.Duration) {
	if d <= 0 {
		if drw, ok := c.rw.(deadlineRW); ok {
			if c.armedR {
				_ = drw.SetReadDeadline(time.Time{})
				c.armedR = false
			}
			if c.armedW {
				_ = drw.SetWriteDeadline(time.Time{})
				c.armedW = false
			}
		}
	}
	c.timeout = d
}

// EnableBinary does nothing: every body is binary.
//
// Deprecated: kept only until the benchmark stops calling it (ROADMAP
// item 1(b)).
func (c *Conn) EnableBinary() {}

// InputPending reports whether undrained inbound bytes already sit in the
// read buffer — i.e. the peer pipelined another frame behind the one just
// consumed.
func (c *Conn) InputPending() bool { return c.brd.buffered() > 0 }

// armRead applies the per-operation read deadline, if any.
func (c *Conn) armRead() {
	if c.timeout <= 0 {
		return
	}
	if d, ok := c.rw.(deadlineRW); ok {
		_ = d.SetReadDeadline(time.Now().Add(c.timeout))
		c.armedR = true
	}
}

// armWrite applies the per-operation write deadline, if any.
func (c *Conn) armWrite() {
	if c.timeout <= 0 {
		return
	}
	if d, ok := c.rw.(deadlineRW); ok {
		_ = d.SetWriteDeadline(time.Now().Add(c.timeout))
		c.armedW = true
	}
}

// Queue frames one message with the next sequence number into the write
// batch; nothing reaches the stream until Flush.
func (c *Conn) Queue(t MsgType, body interface{}) error {
	// The sequence number is committed only once the frame is staged: if
	// encoding fails nothing reaches the wire, so consuming a seq here
	// would make the next successful frame skip one and be rejected by a
	// healthy peer with ErrSeqMismatch.
	h := Header{Version: Version2, Type: t, Seq: c.seq + 1}
	if err := c.fw.WriteMessage(h, body); err != nil {
		return err
	}
	c.seq++
	return nil
}

// Flush writes the queued batch as one vectored write.
func (c *Conn) Flush() error {
	c.armWrite()
	return c.fw.Flush()
}

// Send frames and writes one message with the next sequence number.
func (c *Conn) Send(t MsgType, body interface{}) error {
	if err := c.Queue(t, body); err != nil {
		return err
	}
	return c.Flush()
}

// Recv reads the next message and verifies its sequence number advances
// the peer's stream by exactly one, so a duplicated or stale frame can
// never be accepted as the answer to a newer request. On session conns
// the body lands in the session's reusable buffer, so the returned raw
// slice is valid only until the next Recv; on any other Conn it is
// allocated for this frame and the Conn never touches it again.
func (c *Conn) Recv() (Header, []byte, error) {
	c.armRead()
	h, raw, err := readFrame(&c.brd, c.body, c.sess)
	if c.sess != nil {
		// body shares the Conn's session lifetime (see NewConnSession); it
		// is kept across errors so grown storage is reused.
		c.body = raw
	}
	if err != nil {
		return h, nil, err
	}
	if h.Seq != c.peerSeq+1 {
		return h, raw, fmt.Errorf("%w: got %v seq %d, expected %d", ErrSeqMismatch, h.Type, h.Seq, c.peerSeq+1)
	}
	c.peerSeq = h.Seq
	return h, raw, nil
}

// RecvInto reads the next message, requires it to be of the wanted type,
// and decodes it into reply. A peer MsgError is surfaced as a *PeerError.
// Without a session the frame body was allocated for this message alone,
// so reply's []byte fields alias it instead of copying out.
func (c *Conn) RecvInto(want MsgType, reply interface{}) error {
	h, raw, err := c.Recv()
	if err != nil {
		return err
	}
	return decodeAs(h, raw, want, reply, c.sess == nil)
}

// DecodeAs is RecvInto's second half for a frame already received: it
// requires h to be of the wanted type and decodes raw into reply,
// surfacing a peer MsgError as a *PeerError. The caller keeps raw: reply
// holds no reference to it.
func DecodeAs(h Header, raw []byte, want MsgType, reply interface{}) error {
	return decodeAs(h, raw, want, reply, false)
}

func decodeAs(h Header, raw []byte, want MsgType, reply interface{}, owned bool) error {
	if h.Type == MsgError {
		var e ErrorRep
		if derr := decodeRaw(h, raw, &e, false); derr == nil && e.Message != "" {
			return &PeerError{Message: e.Message}
		}
		return &PeerError{}
	}
	if h.Type != want {
		return fmt.Errorf("inp: expected %v, got %v", want, h.Type)
	}
	return decodeRaw(h, raw, reply, owned)
}

// Call sends a request and decodes the matching reply type.
func (c *Conn) Call(t MsgType, body interface{}, want MsgType, reply interface{}) error {
	if err := c.Send(t, body); err != nil {
		return err
	}
	return c.RecvInto(want, reply)
}

// SendError reports a failure to the peer; it is best-effort and returns
// the write error for logging.
func (c *Conn) SendError(msg string) error {
	return c.Send(MsgError, ErrorRep{Message: msg})
}
