package main

import (
	"os"
	"regexp"
	"testing"
)

// TestQuickstartNegotiatesBitmapForPDA runs the example and checks the
// lines it exists to show: the PDA on Bluetooth negotiates bitmap and its
// second fetch is a differential update.
func TestQuickstartNegotiatesBitmapForPDA(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		`negotiated protocol for PDA/Bluetooth: bitmap \(PAD pad-bitmap,`,
		`second fetch: +\d+ wire bytes \(differential\)`,
		`totals: 2 requests, 1 negotiation\(s\), 1 PAD download\(s\)`,
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
