package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"fractal/internal/netsim"
)

func TestKindString(t *testing.T) {
	for k := None; k < kindMax; k++ {
		if k.String() == "" || k.String()[0] == 'f' {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "fault(200)" {
		t.Fatalf("unknown kind name = %q", Kind(200).String())
	}
}

func TestStreamTruncateEndsInboundStream(t *testing.T) {
	src := bytes.NewReader(bytes.Repeat([]byte{0xAB}, 64))
	s := WrapConn(readWriter{src, io.Discard}, Fault{Kind: Truncate, After: 10}, 1)
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("read %d bytes past truncation, want 10", len(got))
	}
	// io.ReadFull surfaces the mid-frame class of error.
	s2 := WrapConn(readWriter{bytes.NewReader(make([]byte, 64)), io.Discard}, Fault{Kind: Truncate, After: 10}, 1)
	if _, err := io.ReadFull(s2, make([]byte, 16)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame read error = %v, want ErrUnexpectedEOF", err)
	}
}

// readWriter glues a separate reader and writer into a net.Conn without
// deadlines, so the byte-level faults can be checked without sockets.
type readWriter struct {
	io.Reader
	io.Writer
}

func (readWriter) Close() error                     { return nil }
func (readWriter) LocalAddr() net.Addr              { return nil }
func (readWriter) RemoteAddr() net.Addr             { return nil }
func (readWriter) SetDeadline(time.Time) error      { return nil }
func (readWriter) SetReadDeadline(time.Time) error  { return nil }
func (readWriter) SetWriteDeadline(time.Time) error { return nil }

func TestStreamCorruptIsDeterministic(t *testing.T) {
	payload := bytes.Repeat([]byte{0x55}, 32)
	read := func(seed int64) []byte {
		s := WrapConn(readWriter{bytes.NewReader(payload), io.Discard}, Fault{Kind: Corrupt, After: 4, Count: 3}, seed)
		got, err := io.ReadAll(s)
		if err != nil {
			t.Fatalf("ReadAll: %v", err)
		}
		return got
	}
	a, b := read(42), read(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	if bytes.Equal(a, payload) {
		t.Fatal("corruption changed nothing")
	}
	for i, by := range a {
		inWindow := i >= 4 && i < 7
		if (by != 0x55) != inWindow {
			t.Fatalf("byte %d = %#x: corruption outside window [4,7)", i, by)
		}
	}
}

func TestStreamResetBothDirections(t *testing.T) {
	var sink bytes.Buffer
	s := WrapConn(readWriter{bytes.NewReader(make([]byte, 64)), &sink}, Fault{Kind: Reset, After: 8}, 1)
	if _, err := io.ReadFull(s, make([]byte, 6)); err != nil {
		t.Fatalf("read before reset: %v", err)
	}
	// 6 read + 4 written crosses the 8-byte budget: prefix lands, then reset.
	n, err := s.Write(make([]byte, 4))
	if !errors.Is(err, ErrReset) {
		t.Fatalf("write across budget err = %v, want ErrReset", err)
	}
	if n != 2 {
		t.Fatalf("write across budget wrote %d, want the 2-byte prefix", n)
	}
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, ErrReset) {
		t.Fatalf("read after reset err = %v, want ErrReset", err)
	}
}

func TestConnStallReadBoundedByDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := WrapConn(a, Fault{Kind: StallRead}, 1)
	defer c.Close()
	if err := c.SetReadDeadline(time.Now().Add(80 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read err = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled read took %v, deadline did not bound it", elapsed)
	}
}

func TestConnStallReArmsWhenDeadlineMoves(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := WrapConn(a, Fault{Kind: StallRead}, 1)
	defer c.Close()
	// No deadline yet: the read blocks. Move the deadline from another
	// goroutine; the stalled read must observe it and return.
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("re-armed stall err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled read ignored the re-armed deadline")
	}
}

func TestConnStallWithoutDeadlineUnblocksOnClose(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := WrapConn(a, Fault{Kind: StallWrite}, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Write(make([]byte, 4))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("stall unblocked with %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the stalled write")
	}
}

func TestConnStallWriteAfterPrefix(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := WrapConn(a, Fault{Kind: StallWrite, After: 3}, 1)
	defer c.Close()
	if err := c.SetWriteDeadline(time.Now().Add(60 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	done := make(chan struct{})
	go func() {
		_, _ = io.ReadFull(b, got)
		close(done)
	}()
	n, err := c.Write([]byte("hello"))
	if n != 3 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled write = (%d, %v), want (3, ErrDeadlineExceeded)", n, err)
	}
	<-done
	if string(got) != "hel" {
		t.Fatalf("peer saw %q, want the 3-byte prefix", got)
	}
}

func TestDialerRefuseThenClean(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	sched := NewSchedule(7, Fault{Kind: Refuse})
	d := &Dialer{Schedule: sched, Timeout: 2 * time.Second}
	if _, err := d.Dial("tcp", ln.Addr().String()); !errors.Is(err, ErrRefused) {
		t.Fatalf("first dial err = %v, want ErrRefused", err)
	}
	// Script exhausted: the second dial is clean and unwrapped.
	conn, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("post-script dial: %v", err)
	}
	conn.Close()
	counts := sched.Counts()
	if counts["refuse"] != 1 || counts["none"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if sched.Remaining() != 0 {
		t.Fatalf("remaining = %d", sched.Remaining())
	}
}

func TestScheduleForLinkDeterministic(t *testing.T) {
	lossy := netsim.Bluetooth
	lossy.LossRate = 0.5
	consume := func(seed int64) map[string]int64 {
		s, err := ScheduleForLink(lossy, seed, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			s.nextFault()
		}
		return s.Counts()
	}
	a, b := consume(11), consume(11)
	if a["corrupt"] == 0 || a["none"] == 0 {
		t.Fatalf("lossy link schedule not mixed: %v", a)
	}
	if a["corrupt"] != b["corrupt"] {
		t.Fatalf("same seed drew different schedules: %v vs %v", a, b)
	}
	clean, err := ScheduleForLink(netsim.LAN, 11, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if f, _, _ := clean.nextFault(); f.Kind != None {
			t.Fatalf("clean link injected %v", f.Kind)
		}
	}
	if _, err := ScheduleForLink(netsim.Link{}, 1, 1); err == nil {
		t.Fatal("invalid link accepted")
	}
	if _, err := ScheduleForLink(netsim.LAN, 1, -1); err == nil {
		t.Fatal("negative dial count accepted")
	}
}

func TestWrapConnDeadlinePassThrough(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	// A clean wrap must still honor deadlines on the real socket.
	c := WrapConn(a, Fault{Kind: Corrupt, After: 1 << 20}, 1)
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read err = %v, want deadline pass-through", err)
	}
	if c.LocalAddr() == nil || c.RemoteAddr() == nil {
		t.Fatal("addr delegation broken")
	}
}
