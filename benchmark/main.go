// Command benchmark is the real-socket Fractal session benchmark: it stands
// up the three daemons' real serving code on loopback listeners in this
// process, drives them through the real client stack, checks every output,
// and prints end-to-end metrics (measured pass, tracing off) and per-layer
// metrics (traced pass, measured from outside the product). See README.md
// in this directory for the workloads, the metrics and how to read them.
//
//	go run ./benchmark -seed 2005                  every workload, both metric sets, a table
//	go run ./benchmark -seed 2005 -json            the same for machines
//	go run ./benchmark -workload first-contact -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -compare a.json b.json      two -json outputs against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// report is the -json output: provenance and one entry per workload.
type report struct {
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

// provenance says where and how the numbers were taken.
type provenance struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Workers    int     `json:"workers"`
	Network    string  `json:"network"`
	// Comparable is false when the host could not run the workers on cores
	// of their own; such numbers must not be compared with others.
	Comparable bool `json:"comparable"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload in this process and print one JSON result line (default: every workload, each in a child process)")
		seed         = fs.Int64("seed", 2005, "seed of every random choice the benchmark makes")
		seconds      = fs.Float64("seconds", 20, "length of the measured pass; warm-up and traced pass are shares of it")
		trace        = fs.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; unset: both")
		asJSON       = fs.Bool("json", false, "print the full report as JSON instead of a table")
		traceOut     = fs.String("trace-out", "", "directory to write the traced pass's spans to, as <workload>.spans.jsonl (default: not written)")
		compare      = fs.Bool("compare", false, "compare two -json reports given as arguments: base, then candidate")
		allowSingle  = fs.Bool("allow-single-core", false, "run with GOMAXPROCS < 2 and mark the output incomparable")
		child        = fs.Bool("child", false, "with -workload: print the full result object, as the all-workloads run asks of its children")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two report files: base, then candidate")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %q\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if err := checkHost(*allowSingle); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	if *workloadName != "" {
		def, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		res, err := runWorkload(runConfig{
			def: def, seed: *seed, seconds: *seconds, sizes: paperSizes,
			endToEnd: *trace != "1", perLayer: *trace != "0", traceOut: *traceOut,
		})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		if res.FirstError != "" {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed, first: %s\n", def.name, res.Failed, res.Attempted, res.FirstError)
		}
		if *child {
			return encode(stdout, stderr, res)
		}
		return encode(stdout, stderr, driverLine(res))
	}

	rep := report{Provenance: newProvenance(*seed, *seconds)}
	for _, def := range workloadDefs {
		fmt.Fprintf(stderr, "benchmark: running %s\n", def.name)
		res, err := runChild(def.name, *seed, *seconds, *trace, *traceOut, *allowSingle, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	} else if err := printTable(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, w := range rep.Workloads {
		if w.Failed > 0 {
			return 1
		}
	}
	return 0
}

// checkHost refuses a host that cannot run two workers at once.
func checkHost(allowSingleCore bool) error {
	if runtime.GOMAXPROCS(0) < workers && !allowSingleCore {
		return errors.New("GOMAXPROCS < 2: the two closed-loop workers would share a core and no number would be comparable; pass -allow-single-core to run anyway")
	}
	return nil
}

func encode(stdout, stderr io.Writer, v interface{}) int {
	if err := json.NewEncoder(stdout).Encode(v); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runChild re-executes this binary for one workload, so set-up time, peak
// memory and caches do not leak from one workload into the next.
func runChild(name string, seed int64, seconds float64, trace, traceOut string, allowSingle bool, stderr io.Writer) (*workloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if trace != "" {
		args = append(args, "-trace", trace)
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	if allowSingle {
		args = append(args, "-allow-single-core")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res workloadResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &res, nil
}

// resultLine is the one JSON object a single-workload run prints last.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverLine(res *workloadResult) resultLine {
	line := resultLine{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]lineMetric{},
	}
	for _, set := range []map[string]value{res.EndToEnd, res.PerLayer} {
		for name, v := range set {
			line.Metrics[name] = lineMetric{Value: v.Value, Unit: v.Unit}
		}
	}
	return line
}

func newProvenance(seed int64, seconds float64) provenance {
	p := provenance{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Seconds: seconds, Workers: workers,
		Network:    "loopback (127.0.0.1, one process, no real link)",
		Comparable: runtime.GOMAXPROCS(0) >= workers,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// printTable prints every metric by name with its unit, one workload per
// column, the slices' range beside each median.
func printTable(w io.Writer, rep report) error {
	p := rep.Provenance
	fmt.Fprintf(w, "fractal session benchmark: %s/%s, %s, nproc=%d GOMAXPROCS=%d, %s, commit %s\n",
		p.GOOS, p.GOARCH, p.CPU, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit)
	fmt.Fprintf(w, "seed=%d seconds=%g workers=%d (closed loop) network=%s\n", p.Seed, p.Seconds, p.Workers, p.Network)
	if !p.Comparable {
		fmt.Fprintln(w, "NOT COMPARABLE: GOMAXPROCS < 2, the workers shared a core")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	header := "metric\tunit"
	for _, wl := range rep.Workloads {
		header += "\t" + wl.Name
	}
	section := func(title string, defs []metricDef, pick func(*workloadResult) map[string]value) {
		any := false
		for _, wl := range rep.Workloads {
			any = any || pick(wl) != nil
		}
		if !any {
			return
		}
		fmt.Fprintf(tw, "\n%s\n%s\n", title, header)
		for _, def := range defs {
			row := def.Name + "\t" + def.Unit
			for _, wl := range rep.Workloads {
				v, ok := pick(wl)[def.Name]
				switch {
				case !ok:
					row += "\t-"
				case v.Min != v.Max:
					row += fmt.Sprintf("\t%.4g [%.4g..%.4g]", v.Value, v.Min, v.Max)
				default:
					row += fmt.Sprintf("\t%.4g", v.Value)
				}
			}
			fmt.Fprintln(tw, row)
		}
	}
	section("END TO END (measured pass, tracing off; median slice [min..max slice])", endToEndDefs,
		func(r *workloadResult) map[string]value { return r.EndToEnd })
	fmt.Fprint(tw, "failed_frac\tratio")
	for _, wl := range rep.Workloads {
		fmt.Fprintf(tw, "\t%g (%d of %d)", wl.FailedFrac, wl.Failed, wl.Attempted)
	}
	fmt.Fprintln(tw)
	section("PER LAYER (traced pass, layer replay, counter deltas)", perLayerDefs,
		func(r *workloadResult) map[string]value { return r.PerLayer })
	if err := tw.Flush(); err != nil {
		return err
	}
	var samples []string
	for _, wl := range rep.Workloads {
		if v, ok := wl.EndToEnd["latency_p99_ms"]; ok {
			samples = append(samples, fmt.Sprintf("%s %d", wl.Name, v.Samples))
		}
	}
	sort.Strings(samples)
	if len(samples) > 0 {
		fmt.Fprintf(w, "\nlatency samples over %d slices: %s\n", numSlices, strings.Join(samples, ", "))
	}
	return nil
}
