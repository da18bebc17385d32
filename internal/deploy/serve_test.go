package deploy

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"fractal/internal/appserver"
)

// TestIdleBoundFreesSessionSlots: connections that send nothing take
// every session slot of a served daemon; the idle bound closes them, and
// a client that queued behind them is then served.
func TestIdleBoundFreesSessionSlots(t *testing.T) {
	defer func(d time.Duration) { idleTimeout = d }(idleTimeout)
	idleTimeout = 200 * time.Millisecond
	app := smallApp(t)
	dir := t.TempDir()
	if err := Publish(app.Server, dir); err != nil {
		t.Fatal(err)
	}
	_, addr := servedProxy(t, dir)

	silent := make([]net.Conn, maxSessions)
	for i := range silent {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		silent[i] = conn
	}
	if err := appserver.PushAppMetaTCP(addr, app.Meta); err != nil {
		t.Fatalf("client queued behind silent connections: %v", err)
	}
	for i, conn := range silent {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("silent connection %d: read %v, want EOF from the server closing it", i, err)
		}
	}
}
