package main

import (
	"os"
	"regexp"
	"testing"
)

// TestExtensionSwitchesPDAToRsync runs the example and checks the lines it
// exists to show: the PDA negotiates bitmap before the operator adds rsync
// and rsync after.
func TestExtensionSwitchesPDAToRsync(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		`before extension: PDA negotiates bitmap`,
		`operator added pad-rsync \(rsync,`,
		`after extension: +PDA negotiates rsync`,
		`fetched \d+ content bytes over \d+ wire bytes using freshly deployed mobile code`,
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
