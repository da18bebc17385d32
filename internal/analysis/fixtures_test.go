package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is shared across fixture tests so the source importer's
// stdlib cache is built once.
var (
	fixtureLoaderOnce sync.Once
	fixtureLoader     *Loader
	fixtureLoaderErr  error
)

func getLoader(t *testing.T) *Loader {
	t.Helper()
	fixtureLoaderOnce.Do(func() {
		fixtureLoader, fixtureLoaderErr = NewLoader(".")
	})
	if fixtureLoaderErr != nil {
		t.Fatal(fixtureLoaderErr)
	}
	return fixtureLoader
}

// diagKey is the exact identity a fixture asserts: analyzer, file, line,
// and column.
type diagKey struct {
	analyzer string
	file     string
	line     int
	col      int
}

func (k diagKey) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", k.file, k.line, k.col, k.analyzer)
}

// parseWants extracts the expected diagnostics from //want markers in the
// fixture sources. Each marker lists space-separated analyzer:col pairs
// expected on its own line.
func parseWants(t *testing.T, dir string) []diagKey {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var wants []diagKey
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, spec, ok := strings.Cut(line, "//want ")
			if !ok {
				continue
			}
			for _, field := range strings.Fields(spec) {
				name, colStr, ok := strings.Cut(field, ":")
				if !ok {
					t.Fatalf("%s:%d: malformed want field %q", file, i+1, field)
				}
				col, err := strconv.Atoi(colStr)
				if err != nil {
					t.Fatalf("%s:%d: malformed want column %q", file, i+1, field)
				}
				wants = append(wants, diagKey{analyzer: name, file: file, line: i + 1, col: col})
			}
		}
	}
	return wants
}

// checkFixture loads one fixture directory under the given import path,
// runs the analyzer, and compares the diagnostics against the //want
// markers exactly.
func checkFixture(t *testing.T, a *Analyzer, dir, asPath string) {
	t.Helper()
	loader := getLoader(t)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs, asPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range pkg.TypeErrs {
		t.Errorf("fixture %s failed to type-check: %v", dir, te)
	}
	want := parseWants(t, abs)
	var got []diagKey
	for _, d := range Run([]*Package{pkg}, []*Analyzer{a}) {
		got = append(got, diagKey{analyzer: d.Analyzer, file: d.File, line: d.Line, col: d.Col})
	}
	sortKeys(want)
	sortKeys(got)
	if len(want) != len(got) {
		t.Fatalf("fixture %s: got %d diagnostics, want %d\ngot:  %v\nwant: %v", dir, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("fixture %s: diagnostic %d at %s, want %s", dir, i, got[i], want[i])
		}
	}
}

func sortKeys(ks []diagKey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].file != ks[j].file {
			return ks[i].file < ks[j].file
		}
		if ks[i].line != ks[j].line {
			return ks[i].line < ks[j].line
		}
		if ks[i].col != ks[j].col {
			return ks[i].col < ks[j].col
		}
		return ks[i].analyzer < ks[j].analyzer
	})
}

// The bad fixtures are loaded under the same import paths the analyzers
// scope to, so (for example) the simtime bad fixture demonstrates exactly
// what happens when a time.Now() call is introduced into internal/netsim:
// the suite — and therefore the self-check test — fails.
func TestSimtimeFixtures(t *testing.T) {
	checkFixture(t, SimtimeAnalyzer, filepath.Join("testdata", "simtime", "bad"), "fractal/internal/netsim")
	checkFixture(t, SimtimeAnalyzer, filepath.Join("testdata", "simtime", "good"), "fractal/internal/netsim")
}

func TestRawrandFixtures(t *testing.T) {
	checkFixture(t, RawrandAnalyzer, filepath.Join("testdata", "rawrand", "bad"), "fractal/internal/workload")
	checkFixture(t, RawrandAnalyzer, filepath.Join("testdata", "rawrand", "good"), "fractal/internal/workload")
}

func TestErrdiscardFixtures(t *testing.T) {
	checkFixture(t, ErrdiscardAnalyzer, filepath.Join("testdata", "errdiscard", "bad"), "fractal/internal/codec")
	checkFixture(t, ErrdiscardAnalyzer, filepath.Join("testdata", "errdiscard", "good"), "fractal/internal/codec")
}

func TestDigestsafeFixtures(t *testing.T) {
	checkFixture(t, DigestsafeAnalyzer, filepath.Join("testdata", "digestsafe", "bad"), "fractal/internal/mobilecode")
	checkFixture(t, DigestsafeAnalyzer, filepath.Join("testdata", "digestsafe", "good"), "fractal/internal/mobilecode")
}

// TestDigestsafeScope verifies comparisons outside the verification
// pipeline (for example the rsync encoder's dedup probe) are not flagged.
func TestDigestsafeScope(t *testing.T) {
	loader := getLoader(t)
	abs, err := filepath.Abs(filepath.Join("testdata", "digestsafe", "bad"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs, "fractal/internal/codec")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run([]*Package{pkg}, []*Analyzer{DigestsafeAnalyzer}); len(diags) != 0 {
		t.Fatalf("digestsafe fired outside its scope: %v", diags)
	}
}

func TestLockheldFixtures(t *testing.T) {
	checkFixture(t, LockheldAnalyzer, filepath.Join("testdata", "lockheld", "bad"), "fractal/internal/client")
	checkFixture(t, LockheldAnalyzer, filepath.Join("testdata", "lockheld", "good"), "fractal/internal/client")
}

func TestWiretaintFixtures(t *testing.T) {
	checkFixture(t, WiretaintAnalyzer, filepath.Join("testdata", "wiretaint", "bad"), "fractal/internal/inp")
	checkFixture(t, WiretaintAnalyzer, filepath.Join("testdata", "wiretaint", "good"), "fractal/internal/inp")
}

// TestWiretaintInterFixtures pins the interprocedural taint paths: a
// wire length laundered through two call hops still reaches the sink
// (and is reported at the caller's argument), while caller-side guards,
// callee-internal clamps, and min() all sanitize.
func TestWiretaintInterFixtures(t *testing.T) {
	checkFixture(t, WiretaintAnalyzer, filepath.Join("testdata", "wiretaint", "inter", "bad"), "fractal/internal/inp")
	checkFixture(t, WiretaintAnalyzer, filepath.Join("testdata", "wiretaint", "inter", "good"), "fractal/internal/inp")
}

// TestLockheldInterFixtures pins the interprocedural lock discipline: a
// mutex held across a call to a transitively-blocking helper (conn I/O
// or a dial, one or two hops down) is reported; snapshot-then-call is
// clean.
func TestLockheldInterFixtures(t *testing.T) {
	checkFixture(t, LockheldAnalyzer, filepath.Join("testdata", "lockheld", "inter", "bad"), "fractal/internal/client")
	checkFixture(t, LockheldAnalyzer, filepath.Join("testdata", "lockheld", "inter", "good"), "fractal/internal/client")
}

func TestHotpathFixtures(t *testing.T) {
	checkFixture(t, HotpathAnalyzer, filepath.Join("testdata", "hotpath", "bad"), "fractal/internal/core")
	checkFixture(t, HotpathAnalyzer, filepath.Join("testdata", "hotpath", "good"), "fractal/internal/core")
}

// TestLockheldScope verifies lock discipline outside the concurrent
// serving-plane packages (for example a test helper package) is not the
// analyzer's business.
func TestLockheldScope(t *testing.T) {
	loader := getLoader(t)
	abs, err := filepath.Abs(filepath.Join("testdata", "lockheld", "bad"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs, "fractal/internal/netsim")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{LockheldAnalyzer}) {
		if d.Analyzer == LockheldAnalyzer.Name {
			t.Fatalf("lockheld fired outside its scope: %v", d)
		}
	}
}

// TestWiretaintScope verifies integers decoded outside the wire-facing
// packages are not treated as hostile.
func TestWiretaintScope(t *testing.T) {
	loader := getLoader(t)
	abs, err := filepath.Abs(filepath.Join("testdata", "wiretaint", "bad"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs, "fractal/internal/netsim")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{WiretaintAnalyzer}) {
		if d.Analyzer == WiretaintAnalyzer.Name {
			t.Fatalf("wiretaint fired outside its scope: %v", d)
		}
	}
}

// TestStaleAllowsForFlowAnalyzers verifies allowcheck covers the new
// analyzer names: an annotation naming lockheld/wiretaint/hotpath that
// suppresses nothing is itself reported.
func TestStaleAllowsForFlowAnalyzers(t *testing.T) {
	loader := getLoader(t)
	abs, err := filepath.Abs(filepath.Join("testdata", "allowstale"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs, "fractal/internal/client")
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range pkg.TypeErrs {
		t.Errorf("fixture failed to type-check: %v", te)
	}
	want := parseWants(t, abs)
	var got []diagKey
	for _, d := range Run([]*Package{pkg}, []*Analyzer{LockheldAnalyzer, WiretaintAnalyzer, HotpathAnalyzer}) {
		got = append(got, diagKey{analyzer: d.Analyzer, file: d.File, line: d.Line, col: d.Col})
	}
	sortKeys(want)
	sortKeys(got)
	if len(want) != len(got) {
		t.Fatalf("got %d diagnostics, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("diagnostic %d at %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("", "")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("Select(\"\",\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := Select("simtime,rawrand", "")
	if err != nil || len(two) != 2 {
		t.Fatalf("enable list: got %d analyzers, err %v", len(two), err)
	}
	rest, err := Select("", "hotpath")
	if err != nil || len(rest) != len(Analyzers())-1 {
		t.Fatalf("disable list: got %d analyzers, err %v", len(rest), err)
	}
	if _, err := Select("nope", ""); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}
