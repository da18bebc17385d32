package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestParseCounts(t *testing.T) {
	got, err := parseCounts("1, 25,300")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 25 || got[2] != 300 {
		t.Fatalf("parseCounts = %v", got)
	}
	for _, bad := range []string{"", "0", "-3", "a", "1,,x"} {
		if _, err := parseCounts(bad); err == nil {
			t.Errorf("parseCounts(%q) accepted", bad)
		}
	}
	// Trailing commas and spaces are tolerated.
	got, err = parseCounts(" 5 , ")
	if err != nil || len(got) != 1 || got[0] != 5 {
		t.Fatalf("parseCounts lenient = %v, %v", got, err)
	}
}

// TestSimulatedFiguresMatchGolden regenerates every section of -exp all
// but Figure 9(a), whose rows are wall-clock timings over real TCP, and
// compares the output byte for byte with figures_output.txt, the
// committed output of -exp all.
func TestSimulatedFiguresMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("../../figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	start := strings.Index(want, "\n== Figure 9(a)")
	next := -1
	if start >= 0 {
		next = strings.Index(want[start+1:], "\n== ")
	}
	if next < 0 {
		t.Fatal("figures_output.txt has no Figure 9(a) section followed by another")
	}
	want = want[:start] + want[start+1+next:]

	var defs []sectionDef
	for _, d := range sections {
		if d.id != "fig9a" {
			defs = append(defs, d)
		}
	}
	counts, err := parseCounts(defaultClients)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printSections(&out, defs, counts); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d differs from figures_output.txt (Fig 9(a) cut):\ngot:  %q\nwant: %q", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, figures_output.txt (Fig 9(a) cut) has %d", len(gotLines), len(wantLines))
	}
}
