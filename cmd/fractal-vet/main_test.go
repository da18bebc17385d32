package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fractal/internal/analysis"
	"fractal/internal/mobilecode"
)

// capture runs f with a temp file substituted for an output stream and
// returns what was written to it.
func capture(t *testing.T, f func(out *os.File)) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	f(tmp)
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunList(t *testing.T) {
	var code int
	out := capture(t, func(f *os.File) {
		code = run([]string{"-list"}, f, f)
	})
	if code != 0 {
		t.Fatalf("run -list = %d, want 0", code)
	}
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output missing analyzer %q:\n%s", a.Name, out)
		}
	}
}

func TestRunJSONCleanPackage(t *testing.T) {
	var code int
	out := capture(t, func(f *os.File) {
		code = run([]string{"-json", "../../internal/netsim"}, f, f)
	})
	if code != 0 {
		t.Fatalf("run -json internal/netsim = %d, want 0 (output: %s)", code, out)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, out)
	}
	if len(diags) != 0 {
		t.Fatalf("internal/netsim should be vet-clean, got %v", diags)
	}
}

// TestRunSARIFCleanPackage checks the -sarif mode emits a valid SARIF
// 2.1.0 log even when there is nothing to report: the CI upload step
// always needs a file, and a clean run is the common case.
func TestRunSARIFCleanPackage(t *testing.T) {
	var code int
	out := capture(t, func(f *os.File) {
		code = run([]string{"-sarif", "../../internal/netsim"}, f, f)
	})
	if code != 0 {
		t.Fatalf("run -sarif internal/netsim = %d, want 0 (output: %s)", code, out)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("output is not a JSON SARIF log: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("want one SARIF 2.1.0 run, got version %q with %d runs", log.Version, len(log.Runs))
	}
	if got := log.Runs[0].Tool.Driver.Name; got != "fractal-vet" {
		t.Fatalf("driver name = %q, want fractal-vet", got)
	}
	if len(log.Runs[0].Results) != 0 {
		t.Fatalf("internal/netsim should be vet-clean, got %d SARIF results", len(log.Runs[0].Results))
	}
	ruleIDs := map[string]bool{}
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, a := range analysis.Analyzers() {
		if !ruleIDs[a.Name] {
			t.Errorf("SARIF rules missing analyzer %q", a.Name)
		}
	}
	if !ruleIDs["allowcheck"] {
		t.Errorf("SARIF rules missing the allowcheck pseudo-rule")
	}
}

// TestRunSARIFFindings checks findings carry module-relative artifact URIs
// and positions. The lockheld bad fixture is not loadable here (testdata
// is skipped by the loader), so this drives the SARIF encoder directly.
func TestRunSARIFFindings(t *testing.T) {
	diags := []analysis.Diagnostic{{
		Analyzer: "lockheld",
		File:     "/mod/internal/client/transport.go",
		Line:     229,
		Col:      12,
		Message:  "blocking op while mu is held",
	}}
	log := analysis.SARIF(diags, analysis.Analyzers(), "/mod")
	data, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"uri":"internal/client/transport.go"`,
		`"startLine":229`,
		`"startColumn":12`,
		`"ruleId":"lockheld"`,
		`"level":"error"`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("SARIF output missing %s:\n%s", want, data)
		}
	}
}

// TestRunSARIFRelatedLocations checks an interprocedural finding's
// secondary positions (decode site, callee sink, lock acquisition) come
// through as SARIF relatedLocations with their own messages.
func TestRunSARIFRelatedLocations(t *testing.T) {
	diags := []analysis.Diagnostic{{
		Analyzer: "wiretaint",
		File:     "/mod/internal/inp/frame.go",
		Line:     40,
		Col:      15,
		Message:  "wire-decoded integer n flows into make size",
		Related: []analysis.Related{
			{File: "/mod/internal/inp/frame.go", Line: 31, Col: 12, Message: "wire-decoded here"},
			{File: "/mod/internal/inp/alloc.go", Line: 9, Col: 22, Message: "allocation sink inside the callee"},
		},
	}}
	log := analysis.SARIF(diags, analysis.Analyzers(), "/mod")
	data, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"relatedLocations":[`,
		`"uri":"internal/inp/alloc.go"`,
		`"startLine":31`,
		`"message":{"text":"wire-decoded here"}`,
		`"message":{"text":"allocation sink inside the callee"}`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("SARIF output missing %s:\n%s", want, data)
		}
	}
}

// TestRunTiming checks -timing prints a per-analyzer report (to stderr)
// with the summaries pseudo-entry and the wall line.
func TestRunTiming(t *testing.T) {
	var code int
	out := capture(t, func(f *os.File) {
		code = run([]string{"-timing", "../../internal/netsim"}, f, f)
	})
	if code != 0 {
		t.Fatalf("run -timing internal/netsim = %d, want 0 (output: %s)", code, out)
	}
	for _, want := range []string{"fractal-vet timing", "(summaries)", "wall"} {
		if !strings.Contains(out, want) {
			t.Errorf("-timing output missing %q:\n%s", want, out)
		}
	}
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-timing output missing analyzer %q:\n%s", a.Name, out)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	if code := capture2(t, []string{"-json", "-sarif"}); code != 2 {
		t.Fatalf("run -json -sarif = %d, want 2 (mutually exclusive)", code)
	}
	code := capture2(t, []string{"-enable", "nope"})
	if code != 2 {
		t.Fatalf("run -enable nope = %d, want 2", code)
	}
	if code := capture2(t, []string{"../../../outside"}); code != 2 {
		t.Fatalf("run with out-of-module target = %d, want 2", code)
	}
}

func capture2(t *testing.T, args []string) int {
	t.Helper()
	var code int
	capture(t, func(f *os.File) {
		code = run(args, f, f)
	})
	return code
}

func TestRunPadsBuiltinsClean(t *testing.T) {
	var code int
	out := capture(t, func(f *os.File) {
		code = run([]string{"-pads"}, f, f)
	})
	if code != 0 {
		t.Fatalf("run -pads = %d, want 0 (output: %s)", code, out)
	}
	for _, id := range []string{"pad-direct", "pad-gzip", "pad-bitmap", "pad-vary", "pad-rsync", "pad-cascade"} {
		if !strings.Contains(out, id) {
			t.Errorf("-pads output missing module %q:\n%s", id, out)
		}
	}
	if !strings.Contains(out, "0 rejected") {
		t.Errorf("-pads output should report zero rejections:\n%s", out)
	}
}

func TestRunPadsJSON(t *testing.T) {
	var code int
	out := capture(t, func(f *os.File) {
		code = run([]string{"-pads", "-json"}, f, f)
	})
	if code != 0 {
		t.Fatalf("run -pads -json = %d, want 0 (output: %s)", code, out)
	}
	var reports []padReport
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("output is not a JSON report array: %v\n%s", err, out)
	}
	for _, r := range reports {
		if r.Error != "" {
			t.Errorf("builtin module %s rejected: %s", r.Module, r.Error)
		}
		if r.Encode == nil || !r.Encode.ExactCost {
			t.Errorf("builtin module %s should carry an exact encode cost bound", r.Module)
		}
	}
}

// TestRunPadsRejectsPackedFile packs a signed module whose decode program
// calls an undeclared capability and checks -pads fails on the file.
func TestRunPadsRejectsPackedFile(t *testing.T) {
	signer, err := mobilecode.NewSigner("vet-test")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := mobilecode.Assemble("CALL identity\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := mobilecode.Assemble("CALL backdoor.fetch\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	encBin, err := enc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decBin, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m, err := mobilecode.NewModule("pad-evil", "1.0", mobilecode.Payload{
		Protocol: "evil",
		Encode:   encBin,
		Decode:   decBin,
	}, signer)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "evil.pad")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	out := capture(t, func(f *os.File) {
		code = run([]string{"-pads", path}, f, f)
	})
	if code != 1 {
		t.Fatalf("run -pads %s = %d, want 1 (output: %s)", path, code, out)
	}
	if !strings.Contains(out, "REJECTED") || !strings.Contains(out, "backdoor.fetch") {
		t.Errorf("-pads output should name the rejected capability:\n%s", out)
	}
}
