package main

import (
	"os"
	"regexp"
	"testing"
)

// TestContentAdaptPathPerDevice runs the example and checks the lines it
// exists to show: the desktop keeps full fidelity sent directly and the PDA
// gets thumbnails gzip-compressed.
func TestContentAdaptPathPerDevice(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		`two-level PAT: 10 nodes, 8 root-to-leaf paths`,
		`Desktop +negotiated path \[full -> direct\]:`,
		`PDA +negotiated path \[thumbnail -> gzip\]:`,
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
