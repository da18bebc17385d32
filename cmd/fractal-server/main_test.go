package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fractal/internal/deploy"
	"fractal/internal/proxy"
)

// TestMain runs the daemon itself when a test re-executes this binary
// with FRACTAL_SERVER_RUN_DAEMON=1.
func TestMain(m *testing.M) {
	if os.Getenv("FRACTAL_SERVER_RUN_DAEMON") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestPublishesBeforePush runs fractal-server against a proxy gated on an
// empty publish directory: the push registers only because the server
// writes its modules there before pushing. SIGTERM then drains it and it
// exits 0.
func TestPublishesBeforePush(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pads")
	px, err := deploy.NewProxy(deploy.DirModules(dir))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := deploy.Serve("127.0.0.1:0", proxy.NewServer, px, func(string, ...interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-proxy", ep.Addr(), "-publish", dir, "-pages", "4")
	cmd.Env = append(os.Environ(), "FRACTAL_SERVER_RUN_DAEMON=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stderr)
	var seen []string
	for lines.Scan() && !strings.Contains(lines.Text(), "listening on") {
		seen = append(seen, lines.Text())
	}
	if st := px.Stats(); st.TopologyPushes != 1 {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("topology pushes = %d, want 1; server log:\n%s", st.TopologyPushes, strings.Join(seen, "\n"))
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for lines.Scan() {
		}
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("server did not exit on SIGTERM")
	}
}
