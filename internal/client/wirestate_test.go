package client

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"fractal/internal/inp"
)

// startStaleReplayServer runs a malicious application server: the first
// exchange on each connection is answered correctly, the second with a
// verbatim replay of the first reply — a stale frame a conforming client
// must refuse with the typed sequence error.
func startStaleReplayServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				c := inp.NewConn(conn)
				var req inp.AppReq
				if err := c.RecvInto(inp.MsgAppReq, &req); err != nil {
					return
				}
				rep := inp.AppRep{Resource: req.Resource, PADID: "pad-direct", Payload: []byte("ok")}
				if err := c.Send(inp.MsgAppRep, rep); err != nil {
					return
				}
				if err := c.RecvInto(inp.MsgAppReq, &req); err != nil {
					return
				}
				// Replay of reply #1: stale seq 1, where the legitimate
				// next reply would carry seq 2.
				var buf bytes.Buffer
				fw := inp.NewFrameWriter(&buf)
				h := inp.Header{Version: inp.Version2, Type: inp.MsgAppRep, Seq: 1}
				if fw.WriteMessage(h, rep) != nil || fw.Flush() != nil {
					return
				}
				_, _ = conn.Write(buf.Bytes())
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestSessionRejectsStaleReplayedFrame: a replayed reply must surface as
// inp.ErrSeqMismatch, break the session (the stream position is
// unknown), and the next call must transparently redial and succeed.
func TestSessionRejectsStaleReplayedFrame(t *testing.T) {
	addr := startStaleReplayServer(t)
	s, err := DialAppSession(addr, SessionConfig{
		DialTimeout: 2 * time.Second,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.FetchContent(inp.AppReq{AppID: "webapp", Resource: "page-000"}); err != nil {
		t.Fatalf("first exchange: %v", err)
	}

	_, err = s.FetchContent(inp.AppReq{AppID: "webapp", Resource: "page-001"})
	if !errors.Is(err, inp.ErrSeqMismatch) {
		t.Fatalf("stale replayed frame => %v, want inp.ErrSeqMismatch", err)
	}
	if !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("stale replayed frame => %v, want ErrSessionBroken", err)
	}
	if !s.Broken() {
		t.Fatal("session not marked broken after sequence violation")
	}

	rep, err := s.FetchContent(inp.AppReq{AppID: "webapp", Resource: "page-002"})
	if err != nil {
		t.Fatalf("redial after sequence violation: %v", err)
	}
	if string(rep.Payload) != "ok" {
		t.Fatalf("post-redial payload = %q, want %q", rep.Payload, "ok")
	}
	if got := s.Redials(); got != 1 {
		t.Fatalf("redials = %d, want 1", got)
	}
}
