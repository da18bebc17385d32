// Command fractal-bench regenerates every table and figure of the paper's
// evaluation (Section 4.4) and prints the series as tab-separated rows.
//
// Usage:
//
//	fractal-bench -exp all
//	fractal-bench -exp fig9b -clients 1,50,100,200,300
//	fractal-bench -exp headline -json
//	fractal-bench -exp fig10 -cpuprofile cpu.out -memprofile mem.out
//
// Experiments: table1, fig9a, fig9b, fig10, fig10d, fig11a, fig11b,
// fig11c, headline, capacity, timeline, premise, session, all.
//
// With -json the sections are emitted as one JSON document (each TSV row
// split into fields) instead of the human-readable text, for consumption by
// plotting or regression-tracking scripts. The document is an envelope that
// records run provenance — goos, goarch, gomaxprocs, nproc, and an optional
// free-form -note — so snapshots taken on different hosts are never mistaken
// for comparable. -cpuprofile and -memprofile write pprof profiles covering
// the experiment runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"fractal/internal/experiment"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

// section is one experiment's output: a title plus TSV rows.
type section struct {
	ID    string
	Title string
	Rows  []string
}

// jsonSection is the -json wire form of a section, TSV rows split.
type jsonSection struct {
	ID    string     `json:"id"`
	Title string     `json:"title"`
	Rows  [][]string `json:"rows"`
}

// jsonEnvelope wraps -json output with the provenance a regression tracker
// needs to decide whether two runs are comparable at all: numbers taken at
// GOMAXPROCS=1 on a single-CPU host must not be gated against an 8-way run.
type jsonEnvelope struct {
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"nproc"`
	Note       string        `json:"note,omitempty"`
	Sections   []jsonSection `json:"sections"`
}

// emitJSON writes the sections wrapped in the provenance envelope.
func emitJSON(secs []jsonSection, note string) error {
	env := jsonEnvelope{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note:       note,
		Sections:   secs,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id: table1|fig9a|fig9b|fig10|fig10d|fig11a|fig11b|fig11c|headline|capacity|timeline|premise|session|all")
		clients    = flag.String("clients", "1,25,50,100,150,200,250,300", "comma-separated client counts for fig9a/fig9b")
		pages      = flag.Int("pages", 0, "override corpus size (default: the paper's 75)")
		seed       = flag.Int64("seed", 0, "override workload seed")
		edges      = flag.Int("edges", 0, "override CDN edgeserver count")
		jsonOut    = flag.Bool("json", false, "emit sections as one JSON document (with run provenance) instead of text")
		note       = flag.String("note", "", "free-form provenance note recorded in the -json envelope (e.g. host or run context)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the experiment runs to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
	)
	flag.Parse()

	cfg := experiment.DefaultSetupConfig()
	if *pages > 0 {
		cfg.Pages = *pages
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *edges > 0 {
		cfg.Edges = *edges
	}
	counts, err := parseCounts(*clients)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "fractal-bench: building platform (%d pages, %d edges)...\n", cfg.Pages, cfg.Edges)
	s, err := experiment.NewSetup(cfg)
	if err != nil {
		fatal(err)
	}

	run := map[string]func() (section, error){
		"table1":   func() (section, error) { return runTable1(s) },
		"fig9a":    func() (section, error) { return runFig9a(s, counts) },
		"fig9b":    func() (section, error) { return runFig9b(s, counts) },
		"fig10":    func() (section, error) { return runFig10(s, true) },
		"fig10d":   func() (section, error) { return runFig10(s, false) },
		"fig11a":   func() (section, error) { return runFig11a(s) },
		"fig11b":   func() (section, error) { return runFig11(s, true) },
		"fig11c":   func() (section, error) { return runFig11(s, false) },
		"headline": func() (section, error) { return runHeadline(s) },
		"capacity": func() (section, error) { return runCapacity(s) },
		"timeline": func() (section, error) { return runTimeline(s) },
		"premise":  func() (section, error) { return runPremise(cfg.Seed) },
		"session":  func() (section, error) { return runSession(s, cfg.SessionRequests) },
	}
	order := []string{"table1", "fig9a", "fig9b", "fig10", "fig10d", "fig11a", "fig11b", "fig11c", "headline", "capacity", "timeline", "premise", "session"}

	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		if _, ok := run[*exp]; !ok {
			fatal(fmt.Errorf("unknown experiment %q (want one of %s, all)", *exp, strings.Join(order, ", ")))
		}
		ids = []string{*exp}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	var collected []jsonSection
	for _, id := range ids {
		sec, err := run[id]()
		if err != nil {
			fatal(err)
		}
		sec.ID = id
		if *jsonOut {
			collected = append(collected, sec.toJSON())
		} else {
			sec.print()
		}
	}
	if *jsonOut {
		if err := emitJSON(collected, *note); err != nil {
			fatal(err)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// print renders the section in the original human-readable text format.
func (s section) print() {
	fmt.Printf("\n== %s ==\n", s.Title)
	for _, row := range s.Rows {
		fmt.Println(row)
	}
}

// toJSON splits the TSV rows into fields for structured output.
func (s section) toJSON() jsonSection {
	js := jsonSection{ID: s.ID, Title: s.Title, Rows: make([][]string, len(s.Rows))}
	for i, row := range s.Rows {
		js.Rows[i] = strings.Split(row, "\t")
	}
	return js
}

func runTable1(s *experiment.Setup) (section, error) {
	sec := section{Title: "Table 1: functions and implementations of PADs"}
	rows, err := experiment.RunTable1(s)
	if err != nil {
		return sec, err
	}
	sec.Rows = append(sec.Rows, "pad\tfunction\timplementation\tmodule_bytes")
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fmt.Sprintf("%s\t%s\t%s\t%d", r.Name, r.Function, r.Implementation, r.ModuleBytes))
	}
	return sec, nil
}

func runFig9a(s *experiment.Setup, counts []int) (section, error) {
	sec := section{Title: "Figure 9(a): average negotiation time vs clients (real TCP)"}
	r, err := experiment.RunFig9a(s, counts)
	if err != nil {
		return sec, err
	}
	sec.Rows = r.Rows()
	return sec, nil
}

func runFig9b(s *experiment.Setup, counts []int) (section, error) {
	sec := section{Title: "Figure 9(b): PAD retrieval time, centralized vs CDN (simulated)"}
	r, err := experiment.RunFig9b(s, counts)
	if err != nil {
		return sec, err
	}
	sec.Rows = r.Rows()
	return sec, nil
}

func runFig10(s *experiment.Setup, includeServer bool) (section, error) {
	var sec section
	if includeServer {
		sec.Title = "Figure 10(a-c): computing overhead per scenario (reactive server)"
	} else {
		sec.Title = "Figure 10(d): computing overhead per scenario (proactive server)"
	}
	r, err := experiment.RunScenarios(s, includeServer)
	if err != nil {
		return sec, err
	}
	sec.Rows = r.ComputingRows()
	return sec, nil
}

func runFig11a(s *experiment.Setup) (section, error) {
	sec := section{Title: "Figure 11(a): bytes transferred per protocol"}
	r, err := experiment.RunFig11a(s)
	if err != nil {
		return sec, err
	}
	sec.Rows = r.Render()
	return sec, nil
}

func runFig11(s *experiment.Setup, includeServer bool) (section, error) {
	var sec section
	if includeServer {
		sec.Title = "Figure 11(b): total time with server-side difference computing"
	} else {
		sec.Title = "Figure 11(c): total time without server-side difference computing"
	}
	g, err := experiment.RunFig11Grid(s, includeServer)
	if err != nil {
		return sec, err
	}
	sec.Rows = append(sec.Rows, g.Rows()...)
	sc, err := experiment.RunScenarios(s, includeServer)
	if err != nil {
		return sec, err
	}
	sec.Rows = append(sec.Rows, sc.TotalRows()...)
	return sec, nil
}

func runHeadline(s *experiment.Setup) (section, error) {
	sec := section{Title: "Headline: total overhead savings of adaptive protocol adaptation"}
	r, err := experiment.RunHeadline(s)
	if err != nil {
		return sec, err
	}
	sec.Rows = r.Render()
	return sec, nil
}

func runCapacity(s *experiment.Setup) (section, error) {
	sec := section{Title: "Extension: server capacity per adaptation scenario"}
	trace, err := workload.GenerateTrace(s.V2, workload.DefaultTraceConfig(7))
	if err != nil {
		return sec, err
	}
	r, err := experiment.RunCapacity(s, trace)
	if err != nil {
		return sec, err
	}
	sec.Rows = r.Render()
	return sec, nil
}

func runTimeline(s *experiment.Setup) (section, error) {
	sec := section{Title: "Extension: first-contact timeline per station (Figure 4 sequence)"}
	for _, st := range netsim.Stations() {
		tl, err := experiment.RunTimeline(s, st)
		if err != nil {
			return sec, err
		}
		sec.Rows = append(sec.Rows, tl.Render()...)
	}
	return sec, nil
}

func runPremise(seed int64) (section, error) {
	sec := section{Title: "Premise [30]: no single protocol wins across document classes"}
	r, err := experiment.RunPremise(seed)
	if err != nil {
		return sec, err
	}
	sec.Rows = r.Render()
	return sec, nil
}

func runSession(s *experiment.Setup, requests int) (section, error) {
	sec := section{Title: "Extension: whole-session client total delay per scenario"}
	r, err := experiment.RunSessionTotals(s, requests)
	if err != nil {
		return sec, err
	}
	sec.Rows = r.Render()
	return sec, nil
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad client count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no client counts given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fractal-bench:", err)
	os.Exit(1)
}
