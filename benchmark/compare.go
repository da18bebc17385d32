package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictPass       = "PASS"
	verdictWorse      = "WORSE"
	verdictUnresolved = "UNRESOLVED"
)

// worsening is how much worse cand reads than base, as a share of base, in
// the metric's own direction; negative when cand is better.
func worsening(def metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cand - base) / base
	if def.Better == "higher" {
		d = -d
	}
	return d
}

// relSpread is the slices' range as a share of the median.
func relSpread(v value) float64 {
	if v.Value == 0 {
		return 0
	}
	return (v.Max - v.Min) / v.Value
}

// judge compares one metric of two runs against its bound. Where either
// run's own slices spread wider than the bound, a median inside the bound
// proves nothing: the verdict is then decided only if every slice of one
// run reads better than every slice of the other, and is otherwise
// UNRESOLVED.
func judge(def metricDef, base, cand value) string {
	worse := worsening(def, base.Value, cand.Value)
	if relSpread(base) <= def.Bound && relSpread(cand) <= def.Bound {
		if worse > def.Bound {
			return verdictWorse
		}
		return verdictPass
	}
	// Best slice of one run against worst slice of the other.
	baseWorst, baseBest, candWorst, candBest := base.Max, base.Min, cand.Max, cand.Min
	if def.Better == "higher" {
		baseWorst, baseBest, candWorst, candBest = base.Min, base.Max, cand.Min, cand.Max
	}
	switch {
	case worsening(def, baseBest, candWorst) <= 0:
		return verdictPass // every slice of cand at least as good as every slice of base
	case worsening(def, baseWorst, candBest) > def.Bound:
		return verdictWorse // every slice of cand worse than every slice of base by more than the bound
	}
	return verdictUnresolved
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runCompare prints, per workload and end-to-end metric, both values, the
// ratio with its base, and the verdict. It exits non-zero on any WORSE, on
// a higher failed_frac, or when a workload is missing from the candidate.
func runCompare(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readReport(basePath)
	if err == nil {
		var cand *report
		if cand, err = readReport(candPath); err == nil {
			return compareReports(base, cand, basePath, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareReports(base, cand *report, baseName string, stdout io.Writer) int {
	if !base.Provenance.Comparable || !cand.Provenance.Comparable {
		fmt.Fprintln(stdout, "NOT COMPARABLE: a report was taken with GOMAXPROCS < 2")
		return 1
	}
	byName := map[string]*workloadResult{}
	for _, w := range cand.Workloads {
		byName[w.Name] = w
	}
	bad := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbase\tcandidate\tcandidate/base (base: %s)\tbound\tverdict\n", baseName)
	for _, bw := range base.Workloads {
		cw := byName[bw.Name]
		if cw == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\tmissing\t-\t-\t%s\n", bw.Name, verdictWorse)
			bad++
			continue
		}
		for _, def := range endToEndDefs {
			bv, cv := bw.EndToEnd[def.Name], cw.EndToEnd[def.Name]
			v := judge(def, bv, cv)
			note := ""
			switch v {
			case verdictWorse:
				bad++
			case verdictUnresolved:
				note = fmt.Sprintf(" (slices: base %.4g..%.4g, candidate %.4g..%.4g)", bv.Min, bv.Max, cv.Min, cv.Max)
			}
			r := 0.0
			if bv.Value != 0 {
				r = cv.Value / bv.Value
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.4f\t%.0f%%\t%s%s\n",
				bw.Name, def.Name, def.Unit, bv.Value, cv.Value, r, def.Bound*100, v, note)
		}
		v := verdictPass
		if cw.FailedFrac > bw.FailedFrac {
			v = verdictWorse
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\tratio\t%g\t%g\t-\t0\t%s\n", bw.Name, bw.FailedFrac, cw.FailedFrac, v)
	}
	if err := tw.Flush(); err != nil {
		return 2 // stdout is gone; there is nowhere to say so
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d comparison(s) WORSE\n", bad)
		return 1
	}
	return 0
}
