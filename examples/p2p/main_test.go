package main

import (
	"os"
	"regexp"
	"testing"
)

// TestP2PProtocolPerDirection runs the example and checks the lines it
// exists to show: every direction negotiates on its own: the workstation
// fetches directly, the laptop with gzip, the handheld with gzip from the
// workstation and bitmap from the laptop.
func TestP2PProtocolPerDirection(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		`workstation <- laptop +direct `,
		`workstation <- handheld +direct `,
		`laptop +<- workstation +gzip `,
		`laptop +<- handheld +gzip `,
		`handheld +<- workstation +gzip `,
		`handheld +<- laptop +bitmap `,
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
