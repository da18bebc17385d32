package main

import (
	"os"
	"regexp"
	"testing"
)

// TestRoamingRenegotiatesPerHop runs the example and checks the lines it
// exists to show: each hop renegotiates: direct on the LAN, gzip on the
// WLAN, bitmap on Bluetooth.
func TestRoamingRenegotiatesPerHop(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		`office desktop on Ethernet LAN +negotiated direct `,
		`home laptop on 802.11 WLAN +negotiated gzip `,
		`meeting-room PDA on Bluetooth +negotiated bitmap `,
		`session: 3 requests, 3 negotiations \(one per environment\), 3 PAD downloads`,
	} {
		if !regexp.MustCompile(`(?m)^ *` + want).MatchString(out) {
			t.Errorf("output lacks a line matching %q:\n%s", want, out)
		}
	}
}

// runMain runs the example with its standard output captured.
func runMain(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
