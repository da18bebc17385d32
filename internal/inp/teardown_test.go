package inp

import (
	"bytes"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
)

// resetErr is the error a TCP read returns when the peer resets the
// connection.
var resetErr error = &net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.ECONNRESET)}

// endingReader returns its chunks one per Read, then err forever.
type endingReader struct {
	chunks [][]byte
	err    error
}

func (r *endingReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, r.err
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// scriptedConn is a net.Conn whose reads are scripted and whose writes
// vanish; ServeConn with a zero idle bound calls nothing else on it.
type scriptedConn struct {
	net.Conn
	r *endingReader
}

func (c scriptedConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c scriptedConn) Write(p []byte) (int, error) { return len(p), nil }

// TestReadFrameAtBoundaryAllocatesNothing pins the teardown half of first
// contact: a stream that ends or resets before a header's first byte comes
// back as the source's own error, unformatted, so a serving loop's goodbye
// costs no allocation.
func TestReadFrameAtBoundaryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, end := range []error{io.EOF, resetErr} {
		r := &bufReader{src: &endingReader{err: end}, buf: make([]byte, readBufSize)}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := readFrame(r, nil); err != end {
				t.Fatalf("boundary read => %v, want the source's %v unwrapped", err, end)
			}
		})
		if allocs != 0 {
			t.Errorf("readFrame at a boundary ending in %v allocates %.1f per call, want 0", end, allocs)
		}
	}
}

// TestServeConnEndsOnlyAtBoundaries drives ServeConn over scripted
// streams: EOF or a peer reset between sessions is a clean nil, and the
// same ending before the first message or inside a frame is an error
// worded as it always was.
func TestServeConnEndsOnlyAtBoundaries(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Header{Version: Version2, Type: MsgInitReq, Seq: 1}, InitReq{AppID: "app"}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	next := bytes.Clone(frame)
	next[11] = 2 // the next session's opening frame: sequence 2
	cases := []struct {
		name    string
		chunks  [][]byte
		end     error
		wantErr string // "" wants nil
	}{
		{"eof at boundary", [][]byte{frame}, io.EOF, ""},
		{"reset at boundary", [][]byte{frame}, resetErr, ""},
		{"reset before first message", nil, resetErr, "reading first message: inp: reading header: read tcp: read: connection reset by peer"},
		{"eof before first message", nil, io.EOF, "reading first message: inp: reading header: EOF"},
		{"reset mid-header", [][]byte{frame, next[:7]}, resetErr, "reading next session: inp: reading header: read tcp: read: connection reset by peer"},
		{"eof mid-header", [][]byte{frame, next[:7]}, io.EOF, "reading next session: inp: reading header: unexpected EOF"},
		{"eof after a whole header", [][]byte{frame, next[:headerLen]}, io.EOF, "reading next session: inp: reading INIT_REQ body: EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			handled := 0
			srv, err := NewServer("test", 1, t.Logf, func(c *Conn, h Header, raw []byte) error {
				handled++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			err = srv.ServeConn(scriptedConn{r: &endingReader{chunks: tc.chunks, err: tc.end}})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("ServeConn => %v, want nil", err)
			case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
				t.Fatalf("ServeConn => %v, want %q", err, tc.wantErr)
			}
			if want := min(len(tc.chunks), 1); handled != want {
				t.Errorf("handled %d sessions, want %d", handled, want)
			}
		})
	}
}
