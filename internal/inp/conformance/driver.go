package conformance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"fractal/internal/inp"
)

// Stack is one deployment of the world's servers a trace can be replayed
// against: the real TCP stack or the in-memory netsim stack.
type Stack interface {
	Name() string
	Dial(t Target) (net.Conn, error)
}

// RecvObs is one observed reply frame (or the classified error that
// arrived in its place).
type RecvObs struct {
	Type inp.MsgType
	Seq  uint32
	Body []byte
	Err  string
}

func (r RecvObs) String() string {
	if r.Err != "" {
		return "err:" + r.Err
	}
	return fmt.Sprintf("%v/seq%d(%dB)", r.Type, r.Seq, len(r.Body))
}

// StepObs is what the driver observed for one step.
type StepObs struct {
	QueueErr bool
	SendErr  string
	Replies  []RecvObs
	TermErr  string
}

// Outcome is the full observation of one trace replay on one stack.
type Outcome struct {
	Stack    string
	Steps    []StepObs
	DrainErr string
}

// Error classes: every transport error collapses to one of these so TCP
// (RST, EPIPE) and netsim (EOF, ErrClosedPipe) compare equal where the
// protocol outcome is the same.
const (
	errClosed  = "closed"
	errSeq     = "seq-mismatch"
	errTimeout = "timeout"
	errPeer    = "peer-error"
	errProto   = "proto-error"
	obsFrame   = "frame" // a frame arrived where an error was expected
	obsNone    = ""
)

func classify(err error) string {
	var pe *inp.PeerError
	switch {
	case err == nil:
		return obsNone
	case errors.Is(err, inp.ErrSeqMismatch):
		return errSeq
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed), errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE):
		return errClosed
	case errors.Is(err, os.ErrDeadlineExceeded):
		return errTimeout
	case errors.As(err, &pe):
		return errPeer
	default:
		return errProto
	}
}

// driverTimeout bounds every driver I/O operation so a non-conforming
// server costs one timeout observation, never a hung suite; watchdogTime
// backstops even unbounded (SetTimeout(0)) trace segments.
const (
	driverTimeout = 5 * time.Second
	watchdogTime  = 15 * time.Second
)

// Run replays one trace against a stack and records everything a client
// can observe. The returned error means the harness itself failed (dial
// error, staging a frame the spec says must stage); protocol divergence
// never errors here — it shows up when the Outcome is compared.
func Run(stack Stack, tr Trace, ex *Expect) (*Outcome, error) {
	nc, err := stack.Dial(tr.Target)
	if err != nil {
		return nil, fmt.Errorf("dialing %v: %w", tr.Target, err)
	}
	defer closeQuick(nc)
	// Belt and suspenders against a hung conformance suite: the per-op
	// timeout below bounds each read, and the watchdog kills the conn if
	// a trace segment runs unbounded (OpSetTimeout(0)).
	watchdog := time.AfterFunc(watchdogTime, func() { nc.Close() })
	defer watchdog.Stop()

	rc := &rewriteConn{Conn: nc}
	c := inp.NewConn(rc)
	c.SetTimeout(driverTimeout)

	out := &Outcome{Stack: stack.Name()}
	var lastReply []byte // reconstructed last reply frame, inbound-tamper source
	terminated := false

	for i, est := range ex.Steps {
		s := tr.Steps[i]
		so := StepObs{}
		switch s.Op {
		case OpSetTimeout:
			c.SetTimeout(time.Duration(s.Ms) * time.Millisecond)
			out.Steps = append(out.Steps, so)
			continue
		case OpQueueBad:
			// Channels defeat both codecs; staging must fail in place.
			so.QueueErr = c.Queue(inp.MsgCliMetaRep, make(chan int)) != nil
			out.Steps = append(out.Steps, so)
			continue
		}

		rc.muts = s.Muts
		if im, ok := hasInbound(s); ok {
			armInbound(rc, im, lastReply)
		}
		for _, msg := range stepMessages(s) {
			if qerr := c.Queue(msg.t, msg.body); qerr != nil {
				return nil, fmt.Errorf("staging %v: %w", msg.t, qerr)
			}
		}
		if ferr := c.Flush(); ferr != nil {
			so.SendErr = classify(ferr)
		}
		if est.CloseAfterWrite {
			rc.closeWrite()
		}

		readFailed := false
		for range est.Replies {
			h, raw, rerr := c.Recv()
			if rerr != nil {
				so.Replies = append(so.Replies, RecvObs{Err: classify(rerr)})
				readFailed = true
				break
			}
			obs := RecvObs{Type: h.Type, Seq: h.Seq, Body: append([]byte(nil), raw...)}
			so.Replies = append(so.Replies, obs)
			lastReply = buildFrame(h, obs.Body)
		}
		if !readFailed && est.Term != TermNone {
			_, _, terr := c.Recv()
			if terr == nil {
				so.TermErr = obsFrame
			} else {
				so.TermErr = classify(terr)
			}
			readFailed = true
		}
		out.Steps = append(out.Steps, so)
		if readFailed {
			terminated = true
			break
		}
	}

	if !terminated {
		// Clean end of trace: half-close and expect the server to close
		// in turn — EOF at a session boundary is a clean goodbye.
		rc.closeWrite()
		if _, _, derr := c.Recv(); derr == nil {
			out.DrainErr = obsFrame
		} else {
			out.DrainErr = classify(derr)
		}
	}
	return out, nil
}

// armInbound prepares the read-side tamper for a step, mirroring the
// model's eligibility rule exactly: a duplicate needs a reply to clone.
func armInbound(rc *rewriteConn, im Mutation, lastReply []byte) {
	switch im.Kind {
	case MutInDupReply:
		if lastReply != nil {
			rc.inject = append(rc.inject, lastReply)
		}
	case MutInDelay:
		rc.delay = time.Duration(im.Ms) * time.Millisecond
	}
}

// buildFrame reconstructs the wire bytes of a received frame from its
// parsed header and body — the spec's independent statement of the header
// layout, used to forge tampered inbound frames.
func buildFrame(h inp.Header, body []byte) []byte {
	f := make([]byte, frameHeaderLen+len(body))
	copy(f, "INP1")
	f[offVersion] = h.Version
	f[offType] = byte(h.Type)
	binary.BigEndian.PutUint32(f[offSeq:], h.Seq)
	binary.BigEndian.PutUint32(f[offLen:], uint32(len(body)))
	copy(f[frameHeaderLen:], body)
	return f
}

// rewriteConn sits between the driver's inp.Conn and the real transport:
// outbound, it splits each flushed batch back into frames and applies the
// step's mutations through the same applyOutMuts the model uses; inbound,
// it can inject forged frames or delay delivery. Deadline methods promote
// from the embedded conn, so the driver's SetTimeout bounds the real
// stream underneath the rewriting.
type rewriteConn struct {
	net.Conn
	muts   []Mutation
	hist   [][]byte
	inject [][]byte
	delay  time.Duration
	inbuf  []byte
}

func (rc *rewriteConn) Write(p []byte) (int, error) {
	frames, err := splitFrames(p)
	if err != nil {
		return 0, err
	}
	out, _ := applyOutMuts(rc.muts, frames, rc.hist)
	rc.muts = nil
	rc.hist = append(rc.hist, out...)
	var buf []byte
	for _, f := range out {
		buf = append(buf, f...)
	}
	// The driver arms its own bound through the promoted deadline
	// methods before every flush; this inner write inherits it.
	if _, err := rc.Conn.Write(buf); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (rc *rewriteConn) Read(p []byte) (int, error) {
	if rc.delay > 0 {
		d := rc.delay
		rc.delay = 0
		time.Sleep(d)
	}
	if len(rc.inbuf) == 0 && len(rc.inject) > 0 {
		rc.inbuf = rc.inject[0]
		rc.inject = rc.inject[1:]
	}
	if len(rc.inbuf) > 0 {
		n := copy(p, rc.inbuf)
		rc.inbuf = rc.inbuf[n:]
		return n, nil
	}
	return rc.Conn.Read(p)
}

// closeWrite half-closes the underlying stream (FIN / shutdown(WR)):
// both *net.TCPConn and *netsim.Stream support it.
func (rc *rewriteConn) closeWrite() {
	if cw, ok := rc.Conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
}

// closeQuick closes a driver conn without lingering: the suite opens tens
// of thousands of connections, and a TIME_WAIT per trace would exhaust
// the ephemeral port range. Both directions are already drained when this
// runs, so the RST a zero linger turns the close into is invisible to the
// protocol outcome.
func closeQuick(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = nc.Close()
}
