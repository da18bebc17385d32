package main

import (
	"os"
	"regexp"
	"testing"
)

// TestSurgeryPDAChoicePerStrategy runs the example and checks the lines it
// exists to show: the PDA uses bitmap against a reactive server and
// varyblock against a proactive one.
func TestSurgeryPDAChoicePerStrategy(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		`reactive server \(differences computed per request\) +-> PDA uses bitmap`,
		`proactive server \(differences precomputed\) +-> PDA uses varyblock`,
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
