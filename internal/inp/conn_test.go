package inp

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"testing/quick"
	"time"
)

// TestConnRejectsStaleSequence is the regression test for the unchecked
// reply sequence numbers: a duplicated (replayed) frame must not be
// accepted as the answer to a later request.
func TestConnRejectsStaleSequence(t *testing.T) {
	var wire bytes.Buffer
	// The "peer" sends frame seq=1 twice: a legitimate reply followed by
	// a duplicate of it (a replay or a stale retransmission).
	if err := writeFrame(&wire, Header{Version: Version2, Type: MsgInitRep, Seq: 1}, InitRep{OK: true}); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), wire.Bytes()...)
	wire.Write(frame)

	c := NewConn(&wire)
	var rep InitRep
	if err := c.RecvInto(MsgInitRep, &rep); err != nil {
		t.Fatalf("first frame rejected: %v", err)
	}
	err := c.RecvInto(MsgInitRep, &rep)
	if !errors.Is(err, ErrSeqMismatch) {
		t.Fatalf("duplicated frame err = %v, want ErrSeqMismatch", err)
	}
}

func TestConnRejectsSkippedSequence(t *testing.T) {
	var wire bytes.Buffer
	// First frame from a fresh peer must carry seq 1; seq 5 means four
	// frames were lost or reordered and the stream cannot be trusted.
	if err := writeFrame(&wire, Header{Version: Version2, Type: MsgInitRep, Seq: 5}, InitRep{OK: true}); err != nil {
		t.Fatal(err)
	}
	c := NewConn(&wire)
	var rep InitRep
	if err := c.RecvInto(MsgInitRep, &rep); !errors.Is(err, ErrSeqMismatch) {
		t.Fatalf("skipped-ahead frame err = %v, want ErrSeqMismatch", err)
	}
}

// Property: for any claimed sequence number other than 1, a fresh Conn
// rejects the frame; for exactly 1 it accepts.
func TestConnSequenceGateProperty(t *testing.T) {
	f := func(seq uint32) bool {
		var wire bytes.Buffer
		if err := writeFrame(&wire, Header{Version: Version2, Type: MsgInitRep, Seq: seq}, InitRep{OK: true}); err != nil {
			return false
		}
		var rep InitRep
		err := NewConn(&wire).RecvInto(MsgInitRep, &rep)
		if seq == 1 {
			return err == nil
		}
		return errors.Is(err, ErrSeqMismatch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConnPeerErrorIsTyped(t *testing.T) {
	var wire bytes.Buffer
	peer := NewConn(&wire)
	if err := peer.SendError("no such resource"); err != nil {
		t.Fatal(err)
	}
	var rep AppRep
	err := NewConn(&wire).RecvInto(MsgAppRep, &rep)
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PeerError", err, err)
	}
	if pe.Message != "no such resource" {
		t.Fatalf("peer message = %q", pe.Message)
	}
	if err.Error() != "inp: peer error: no such resource" {
		t.Fatalf("historical rendering changed: %q", err.Error())
	}
	if (&PeerError{}).Error() != "inp: peer error (unparseable body)" {
		t.Fatalf("empty rendering changed: %q", (&PeerError{}).Error())
	}
}

// TestConnTimeoutBoundsStalledRead proves a Conn.Call against a peer that
// never answers returns within the configured timeout instead of hanging.
func TestConnTimeoutBoundsStalledRead(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	// Drain the request so the write completes, then go silent.
	go func() {
		_, _, _ = ReadMessage(server)
	}()
	c := NewConn(client)
	c.SetTimeout(80 * time.Millisecond)
	var rep InitRep
	start := time.Now()
	err := c.Call(MsgInitReq, InitReq{AppID: "x"}, MsgInitRep, &rep)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled call err = %v, want deadline", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("timeout did not bound the stalled call")
	}
}

// TestConnQueueEncodeFailureKeepsSequence is the unit-level regression for
// the seq-burn bug the conformance model flushed out (see
// internal/inp/conformance/regress_test.go for the shrunk trace): a body
// that fails to encode must not consume a sequence number, or the next
// successful frame skips one and a healthy peer rejects the stream.
func TestConnQueueEncodeFailureKeepsSequence(t *testing.T) {
	var wire bytes.Buffer
	c := NewConn(&wire)
	if err := c.Send(MsgInitReq, InitReq{AppID: "webapp"}); err != nil {
		t.Fatal(err)
	}
	// A channel has no codec; staging must fail without a frame.
	if err := c.Queue(MsgCliMetaRep, make(chan int)); err == nil {
		t.Fatal("queueing an unencodable body succeeded")
	}
	if err := c.Send(MsgCliMetaRep, CliMetaRep{}); err != nil {
		t.Fatal(err)
	}

	// The receiving side must see seq 1, 2 — no gap.
	peer := NewConn(&wire)
	for want := uint32(1); want <= 2; want++ {
		h, _, err := peer.Recv()
		if err != nil {
			t.Fatalf("frame %d rejected: %v", want, err)
		}
		if h.Seq != want {
			t.Fatalf("frame seq = %d, want %d", h.Seq, want)
		}
	}
}

// TestConnSetTimeoutZeroClearsDeadline pins that disabling the per-op
// bound also clears a previously armed absolute deadline: a later
// long-running Recv must block until the peer answers, not fail against
// the stale deadline of an earlier bounded call.
func TestConnSetTimeoutZeroClearsDeadline(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	go func() {
		// Answer the first (bounded) call promptly.
		_, _, _ = ReadMessage(server)
		_ = writeFrame(server, Header{Version: Version2, Type: MsgInitRep, Seq: 1}, InitRep{OK: true})
		// Answer the second call only after the first call's stale
		// deadline has long passed.
		_, _, _ = ReadMessage(server)
		time.Sleep(150 * time.Millisecond)
		_ = writeFrame(server, Header{Version: Version2, Type: MsgCliMetaReq, Seq: 2}, CliMetaReq{})
	}()

	c := NewConn(client)
	c.SetTimeout(50 * time.Millisecond)
	var rep InitRep
	if err := c.Call(MsgInitReq, InitReq{AppID: "x"}, MsgInitRep, &rep); err != nil {
		t.Fatalf("bounded call: %v", err)
	}
	c.SetTimeout(0) // disable the bound; must clear the armed deadline
	var req CliMetaReq
	if err := c.Call(MsgCliMetaRep, CliMetaRep{}, MsgCliMetaReq, &req); err != nil {
		t.Fatalf("unbounded call after SetTimeout(0) failed: %v (stale deadline left armed?)", err)
	}
}

// TestConnSetTimeoutZeroLeavesForeignDeadlines pins the ownership rule:
// SetTimeout(0) clears only deadlines this Conn armed, never one some
// other owner (a server idle policy) set on the same stream.
func TestConnSetTimeoutZeroLeavesForeignDeadlines(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	// A server-side idle policy arms a deadline directly on the conn.
	if err := client.SetReadDeadline(time.Now().Add(60 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	c := NewConn(client)
	c.SetTimeout(0) // Conn never armed anything: must not clear the idle deadline
	_, _, err := c.Recv()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Recv = %v, want the foreign idle deadline to fire", err)
	}
}

func TestConnTimeoutNoopOnPlainStream(t *testing.T) {
	var wire bytes.Buffer
	c := NewConn(&wire)
	c.SetTimeout(time.Millisecond) // bytes.Buffer has no deadlines
	if err := c.Send(MsgInitRep, InitRep{OK: true}); err != nil {
		t.Fatal(err)
	}
	var rep InitRep
	if err := NewConn(&wire).RecvInto(MsgInitRep, &rep); err != nil {
		t.Fatal(err)
	}
}
