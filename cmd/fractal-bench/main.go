// Command fractal-bench regenerates every table and figure of the paper's
// evaluation (Section 4.4) and prints the series as tab-separated rows.
//
// Usage:
//
//	fractal-bench -exp all
//	fractal-bench -exp fig9b -clients 1,50,100,200,300
//
// Experiments: table1, fig9a, fig9b, fig10, fig10d, fig11a, fig11b,
// fig11c, headline, capacity, timeline, premise, session, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fractal/internal/experiment"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

// defaultClients are the client counts of Figures 9(a) and 9(b).
const defaultClients = "1,25,50,100,150,200,250,300"

// sectionDef is one experiment: its -exp id, its title, and its TSV rows
// on the platform.
type sectionDef struct {
	id, title string
	rows      func(s *experiment.Setup, counts []int) ([]string, error)
}

// sections are the experiments, in the order -exp all prints them.
var sections = []sectionDef{
	{"table1", "Table 1: functions and implementations of PADs", func(s *experiment.Setup, _ []int) ([]string, error) {
		pads, err := experiment.RunTable1(s)
		rows := []string{"pad\tfunction\timplementation\tmodule_bytes"}
		for _, r := range pads {
			rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%d", r.Name, r.Function, r.Implementation, r.ModuleBytes))
		}
		return rows, err
	}},
	{"fig9a", "Figure 9(a): average negotiation time vs clients (real TCP)", func(s *experiment.Setup, counts []int) ([]string, error) {
		r, err := experiment.RunFig9a(s, counts)
		return r.Rows(), err
	}},
	{"fig9b", "Figure 9(b): PAD retrieval time, centralized vs CDN (simulated)", func(s *experiment.Setup, counts []int) ([]string, error) {
		r, err := experiment.RunFig9b(s, counts)
		return r.Rows(), err
	}},
	{"fig10", "Figure 10(a-c): computing overhead per scenario (reactive server)", fig10(true)},
	{"fig10d", "Figure 10(d): computing overhead per scenario (proactive server)", fig10(false)},
	{"fig11a", "Figure 11(a): bytes transferred per protocol", func(s *experiment.Setup, _ []int) ([]string, error) {
		r, err := experiment.RunFig11a(s)
		return r.Render(), err
	}},
	{"fig11b", "Figure 11(b): total time with server-side difference computing", fig11(true)},
	{"fig11c", "Figure 11(c): total time without server-side difference computing", fig11(false)},
	{"headline", "Headline: total overhead savings of adaptive protocol adaptation", func(s *experiment.Setup, _ []int) ([]string, error) {
		r, err := experiment.RunHeadline(s)
		return r.Render(), err
	}},
	{"capacity", "Extension: server capacity per adaptation scenario", func(s *experiment.Setup, _ []int) ([]string, error) {
		trace, err := workload.GenerateTrace(s.V2, workload.DefaultTraceConfig(7))
		if err != nil {
			return nil, err
		}
		r, err := experiment.RunCapacity(s, trace)
		return r.Render(), err
	}},
	{"timeline", "Extension: first-contact timeline per station (Figure 4 sequence)", func(s *experiment.Setup, _ []int) ([]string, error) {
		var rows []string
		for _, st := range netsim.Stations() {
			tl, err := experiment.RunTimeline(s, st)
			if err != nil {
				return nil, err
			}
			rows = append(rows, tl.Render()...)
		}
		return rows, nil
	}},
	{"premise", "Premise [30]: no single protocol wins across document classes", func(*experiment.Setup, []int) ([]string, error) {
		r, err := experiment.RunPremise(experiment.DefaultSetupConfig().Seed)
		return r.Render(), err
	}},
	{"session", "Extension: whole-session client total delay per scenario", func(s *experiment.Setup, _ []int) ([]string, error) {
		r, err := experiment.RunSessionTotals(s, s.Model.SessionRequests)
		return r.Render(), err
	}},
}

// fig10 is Figure 10's computing-overhead rows under one server strategy.
func fig10(includeServer bool) func(*experiment.Setup, []int) ([]string, error) {
	return func(s *experiment.Setup, _ []int) ([]string, error) {
		r, err := experiment.RunScenarios(s, includeServer)
		return r.ComputingRows(), err
	}
}

// fig11 is Figure 11(b)/(c): every protocol's total per station, then
// each scenario's.
func fig11(includeServer bool) func(*experiment.Setup, []int) ([]string, error) {
	return func(s *experiment.Setup, _ []int) ([]string, error) {
		g, err := experiment.RunFig11Grid(s, includeServer)
		if err != nil {
			return nil, err
		}
		sc, err := experiment.RunScenarios(s, includeServer)
		return append(g.Rows(), sc.TotalRows()...), err
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id: table1|fig9a|fig9b|fig10|fig10d|fig11a|fig11b|fig11c|headline|capacity|timeline|premise|session|all")
	clients := flag.String("clients", defaultClients, "comma-separated client counts for fig9a/fig9b")
	flag.Parse()

	defs := sections
	if *exp != "all" {
		defs = nil
		var ids []string
		for _, d := range sections {
			if d.id == *exp {
				defs = []sectionDef{d}
			}
			ids = append(ids, d.id)
		}
		if defs == nil {
			fatal(fmt.Errorf("unknown experiment %q (want one of %s, all)", *exp, strings.Join(ids, ", ")))
		}
	}
	counts, err := parseCounts(*clients)
	if err != nil {
		fatal(err)
	}
	if err := printSections(os.Stdout, defs, counts); err != nil {
		fatal(err)
	}
}

// printSections builds the paper's platform and prints each section as a
// titled block of TSV rows.
func printSections(w io.Writer, defs []sectionDef, counts []int) error {
	cfg := experiment.DefaultSetupConfig()
	fmt.Fprintf(os.Stderr, "fractal-bench: building platform (%d pages, %d edges)...\n", cfg.Pages, cfg.Edges)
	s, err := experiment.NewSetup(cfg)
	if err != nil {
		return err
	}
	for _, d := range defs {
		rows, err := d.rows(s, counts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n== %s ==\n", d.title)
		for _, row := range rows {
			fmt.Fprintln(w, row)
		}
	}
	return nil
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
