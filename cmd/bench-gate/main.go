// Command bench-gate compares a fresh `go test -bench -benchmem` run
// against the committed BENCH_*.json snapshots and fails when the serving
// path regresses: a benchmark slower than max-ns-ratio (default 2x) times
// its snapshot ns/op, or carrying even one more alloc/op than the snapshot,
// exits nonzero. Allocation counts are deterministic, so the allocs gate is
// exact; wall-clock is noisy across hosts, so the ns gate is a wide ratio
// that still catches order-of-magnitude slips (a lost fast path, a pool
// that stopped pooling).
//
// Usage:
//
//	go test -run=NoTests -bench=. -benchmem ./internal/proxy/ | bench-gate -snapshot BENCH_proxy.json
//	bench-gate -snapshot BENCH_proxy.json -snapshot BENCH_codec.json bench.out
//
// Benchmarks named in a snapshot but absent from the run are reported and
// skipped (runs may gate a subset); benchmarks in the run but in no
// snapshot are ignored. Matching zero benchmarks is itself a failure, so a
// renamed benchmark cannot silently disarm the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// benchEntry is one benchmark in a BENCH_*.json snapshot.
type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// snapshotFile is the subset of the snapshot schema the gate needs.
type snapshotFile struct {
	Benchmarks []benchEntry `json:"benchmarks"`
}

// result is one parsed line of `go test -bench -benchmem` output.
type result struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp float64
	HasAllocs   bool
}

// multiFlag collects a repeatable -snapshot flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var snapshots multiFlag
	flag.Var(&snapshots, "snapshot", "committed BENCH_*.json snapshot to gate against (repeatable)")
	maxRatio := flag.Float64("max-ns-ratio", 2.0, "fail when fresh ns/op exceeds snapshot ns/op by more than this ratio")
	flag.Parse()

	if len(snapshots) == 0 {
		fmt.Fprintln(os.Stderr, "bench-gate: at least one -snapshot is required")
		os.Exit(2)
	}

	baseline := map[string]benchEntry{}
	for _, path := range snapshots {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		var sf snapshotFile
		if err := json.Unmarshal(data, &sf); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", path, err))
		}
		for _, b := range sf.Benchmarks {
			baseline[normalizeName(b.Name)] = b
		}
	}
	if len(baseline) == 0 {
		fmt.Fprintln(os.Stderr, "bench-gate: snapshots contain no benchmarks")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	results, err := parseBenchOutput(in)
	if err != nil {
		fatal(err)
	}

	matched := 0
	failures := 0
	seen := map[string]bool{}
	for _, r := range results {
		base, ok := baseline[normalizeName(r.Name)]
		if !ok {
			continue
		}
		matched++
		seen[normalizeName(r.Name)] = true
		status := "ok"
		if base.NsPerOp > 0 && r.NsPerOp > base.NsPerOp*(*maxRatio) {
			status = fmt.Sprintf("FAIL ns/op %.1f > %.1fx snapshot %.1f", r.NsPerOp, *maxRatio, base.NsPerOp)
			failures++
		} else if r.HasAllocs && r.AllocsPerOp > base.AllocsPerOp {
			status = fmt.Sprintf("FAIL allocs/op %.0f > snapshot %.0f", r.AllocsPerOp, base.AllocsPerOp)
			failures++
		}
		fmt.Printf("%-60s %12.1f ns/op (base %.1f) %6.0f allocs/op (base %.0f)  %s\n",
			r.Name, r.NsPerOp, base.NsPerOp, r.AllocsPerOp, base.AllocsPerOp, status)
	}
	for name := range baseline {
		if !seen[name] {
			fmt.Printf("%-60s not in this run (skipped)\n", name)
		}
	}

	if matched == 0 {
		fmt.Fprintln(os.Stderr, "bench-gate: no benchmark in the run matched any snapshot entry — renamed benchmark or wrong bench selector?")
		os.Exit(1)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "bench-gate: %d of %d gated benchmarks regressed\n", failures, matched)
		os.Exit(1)
	}
	fmt.Printf("bench-gate: %d benchmarks within gate (ns/op <= %.1fx snapshot, allocs/op <= snapshot)\n", matched, *maxRatio)
}

// normalizeName maps both snapshot names and bench-output names to one
// comparable form: the `-N` GOMAXPROCS suffix is stripped and the spaces Go
// rewrites to underscores in sub-benchmark names are folded.
func normalizeName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return strings.ReplaceAll(name, " ", "_")
}

// parseBenchOutput extracts benchmark result lines from `go test -bench`
// output, tolerating the goos/pkg preamble, PASS/ok trailers, and optional
// MB/s columns.
func parseBenchOutput(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		res := result{Name: fields[0]}
		// fields[1] is the iteration count; after it come value/unit pairs.
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad benchmark line %q", sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "allocs/op":
				res.AllocsPerOp = v
				res.HasAllocs = true
			}
		}
		if ok {
			out = append(out, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-gate:", err)
	os.Exit(1)
}
