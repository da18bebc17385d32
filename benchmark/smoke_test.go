package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrinks the corpus and the key space so every workload runs in
// well under a second (several under the race detector, which is why it
// gets a smaller corpus still); the code paths are the ones a full run takes.
var smokeSizes = sizes{pages: smokePages, updatePages: smokePages / 3, forgetPages: 1, hotKeys: 16, coldKeys: 64, probeClients: 9, replayPages: 1}

// smokeOps is ops per worker in the measured pass: at least ten ops, and at
// least two rounds of a steady workload (3 clients × every page).
var smokeOps = map[string]int{
	"first-contact":        10,
	"negotiate-persistent": 60,
	"steady-reactive":      max(2*3*smokePages, 10),
	"steady-proactive":     max(2*3*smokePages, 10),
}

func smokeConfig(def workloadDef, seed int64) runConfig {
	return runConfig{
		def: def, seed: seed, sizes: smokeSizes, ops: smokeOps[def.name],
		endToEnd: true, perLayer: true,
	}
}

// benchmarkFile is BENCHMARK.json as the builder's contract shapes it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCode holds BENCHMARK.json and the tables in
// metrics.go and workloads.go together.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(f.Workloads), len(workloadDefs))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: file %q, code %q", i, w.Name, workloadDefs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\nfile %v\ncode %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layer, perLayerDefs) {
		t.Errorf("per_layer differs from perLayerDefs:\nfile %v\ncode %v", layer, perLayerDefs)
	}
	if len(layer) > 128 {
		t.Errorf("%d per-layer metrics, cap is 128", len(layer))
	}
	seen := map[string]bool{}
	for _, m := range append(e2e, layer...) {
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestWorkloadsSmoke runs every workload end to end at a tiny size and
// checks what a full run relies on.
func TestWorkloadsSmoke(t *testing.T) {
	for _, def := range workloadDefs {
		def := def
		t.Run(def.name, func(t *testing.T) {
			res, err := runWorkload(smokeConfig(def, 2005))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.FailedFrac != 0 {
				t.Fatalf("%d of %d ops failed: %s", res.Failed, res.Attempted, res.FirstError)
			}
			if res.Attempted < int64(workers*smokeOps[def.name]) {
				t.Errorf("attempted %d ops, want at least %d", res.Attempted, workers*smokeOps[def.name])
			}

			// Every listed metric exactly once, finite; end-to-end never zero.
			if len(res.EndToEnd) != len(endToEndDefs) || len(res.PerLayer) != len(perLayerDefs) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, want %d and %d",
					len(res.EndToEnd), len(res.PerLayer), len(endToEndDefs), len(perLayerDefs))
			}
			for _, m := range endToEndDefs {
				v, ok := res.EndToEnd[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("end-to-end %s = %+v (present %v)", m.Name, v, ok)
				}
			}
			for _, m := range perLayerDefs {
				v, ok := res.PerLayer[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v (present %v)", m.Name, v, ok)
				}
			}

			// The stations negotiate what the paper's figures say they do.
			if want := stationProtocols(def.proactive); !sameSet(res.Protocols, want) {
				t.Errorf("negotiated %v, want %v", res.Protocols, want)
			}

			checkSpans(t, res.spans)
			checkLayerSeparation(t, def, res)

			// The driver's line carries exactly the contract's keys.
			line, err := json.Marshal(driverLine(res))
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line keys: %s", line)
			}
		})
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[string]bool{}
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		if !in[x] {
			return false
		}
	}
	return true
}

// checkSpans: every parent resolves to a span of the same op that encloses
// its child, and no span's children outlast it (self time >= 0).
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced pass recorded no spans")
	}
	byID := map[int64]span{}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	children := map[int64]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s): parent %d does not resolve", s.ID, s.Name, s.Parent)
			continue
		}
		if p.Op != s.Op || p.Worker != s.Worker || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] += s.EndNs - s.StartNs
	}
	for id, sum := range children {
		if p := byID[id]; sum > p.EndNs-p.StartNs {
			t.Errorf("span %d (%s): children cover %d ns of %d", id, p.Name, sum, p.EndNs-p.StartNs)
		}
	}
}

// checkLayerSeparation: a workload leaves the layers it is the control for
// untouched, and its own layers show.
func checkLayerSeparation(t *testing.T, def workloadDef, res *workloadResult) {
	t.Helper()
	get := func(name string) float64 { return res.PerLayer[name].Value }
	zero := func(names ...string) {
		t.Helper()
		for _, n := range names {
			if get(n) != 0 {
				t.Errorf("%s = %v on %s, want 0", n, get(n), def.name)
			}
		}
	}
	positive := func(names ...string) {
		t.Helper()
		for _, n := range names {
			if get(n) <= 0 {
				t.Errorf("%s = %v on %s, want > 0", n, get(n), def.name)
			}
		}
	}
	controlPlane := []string{"client.dial_us", "client.fetch_pad_us", "proxy.service_us", "proxy.negotiate_hit_us",
		"proxy.searches_per_op", "cdn.service_us", "cdn.origin_get_us", "cdn.bytes_per_fetch", "mobilecode.load_us",
		"mobilecode.bytecode_verify_us", "inp.negotiate_json_us", "inp.negotiate_binary_us"}
	switch def.name {
	case "first-contact":
		positive("client.dial_us", "client.negotiate_us", "client.fetch_pad_us", "client.app_exchange_us",
			"client.ensure_self_us", "proxy.service_us", "cdn.service_us", "appserver.service_us",
			"mobilecode.load_us", "mobilecode.unpack_us", "mobilecode.signature_us", "mobilecode.bytecode_verify_us",
			"inp.negotiate_json_us", "cdn.bytes_per_fetch")
		zero("inp.negotiate_binary_us")
		// The three direct children of EnsureProtocol's span account for it.
		sum := summarize(res.spans)
		ensure := sum[spEnsure].meanUs()
		parts := get("client.negotiate_us") + get("client.fetch_pad_us") + get("client.ensure_self_us")
		if math.Abs(parts-ensure) > 0.02*ensure {
			t.Errorf("negotiate + fetch_pad + ensure_self = %.1f us, EnsureProtocol span = %.1f us", parts, ensure)
		}
	case "negotiate-persistent":
		positive("client.negotiate_us", "proxy.service_us", "proxy.negotiate_hit_us", "proxy.negotiate_miss_us",
			"core.find_path_us", "inp.negotiate_binary_us", "proxy.cache_hit_ratio")
		zero("client.dial_us", "client.fetch_pad_us", "client.app_exchange_us", "cdn.service_us", "mobilecode.load_us",
			"appserver.service_us", "appserver.reactive_per_op", "inp.negotiate_json_us", "inp.app_frame_us",
			"codec.encode_us.gzip", "mobilecode.vm_decode_us.direct")
	case "steady-reactive":
		zero(controlPlane...)
		positive("client.app_exchange_us", "client.request_self_us", "appserver.service_us", "appserver.install_update_ms",
			"appserver.encode_us.cold", "appserver.encode_us.diff", "appserver.encode_us.current",
			"client.request_us.direct", "client.request_us.gzip", "client.request_us.bitmap",
			"codec.encode_us.gzip", "mobilecode.vm_decode_us.bitmap", "inp.app_frame_us", "codec.wire_ratio.bitmap")
		zero("client.request_us.varyblock", "appserver.precompute_hit_ratio")
		if get("appserver.reactive_per_op") != 1 {
			t.Errorf("appserver.reactive_per_op = %v, want 1", get("appserver.reactive_per_op"))
		}
	case "steady-proactive":
		zero(controlPlane...)
		positive("client.request_us.direct", "client.request_us.gzip", "client.request_us.varyblock",
			"mobilecode.vm_decode_us.varyblock", "inp.app_frame_us")
		zero("client.request_us.bitmap", "appserver.reactive_per_op", "appserver.install_update_ms")
		if get("appserver.precompute_hit_ratio") != 1 {
			t.Errorf("appserver.precompute_hit_ratio = %v, want 1", get("appserver.precompute_hit_ratio"))
		}
	}
}

// TestSeedDeterminesOps: the same seed drives the same ops, so the bytes
// asked for and the bytes they took on the wire repeat exactly; another
// seed drives other ops.
func TestSeedDeterminesOps(t *testing.T) {
	if raceEnabled {
		t.Skip("repeats whole runs; the race detector has seen the code in TestWorkloadsSmoke")
	}
	for _, name := range []string{"first-contact", "steady-reactive"} {
		def, _ := findWorkload(name)
		sig := func(seed int64) (int64, int64) {
			cfg := smokeConfig(def, seed)
			cfg.perLayer = false
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.UsefulBytes, res.WireBytes
		}
		u1, w1 := sig(7)
		u2, w2 := sig(7)
		u3, w3 := sig(8)
		if u1 != u2 || w1 != w2 {
			t.Errorf("%s: seed 7 twice gave %d/%d and %d/%d bytes", name, u1, w1, u2, w2)
		}
		if u1 == u3 && w1 == w3 {
			t.Errorf("%s: seeds 7 and 8 gave the same byte totals %d/%d", name, u1, w1)
		}
	}
}

// TestCorruptedExpectationFails: a wrong expected output must surface as
// failed ops, or the checks check nothing.
func TestCorruptedExpectationFails(t *testing.T) {
	if raceEnabled {
		t.Skip("repeats whole runs; the race detector has seen the code in TestWorkloadsSmoke")
	}
	for _, def := range workloadDefs {
		cfg := smokeConfig(def, 2005)
		cfg.corrupt = true
		cfg.perLayer = false
		res, err := runWorkload(cfg)
		if def.name != "first-contact" && def.name != "negotiate-persistent" {
			// The steady workloads check the cold fetches that open them.
			if err == nil {
				t.Errorf("%s: corrupted expectation went unnoticed while opening", def.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if res.FailedFrac != 1 || driverLine(res).Correct {
			t.Errorf("%s: failed_frac = %v with every expectation corrupted, want 1", def.name, res.FailedFrac)
		}
	}
}

// TestTapConnTimesService drives a tapped server connection through two
// request/reply exchanges and checks the service time it stamps.
func TestTapConnTimesService(t *testing.T) {
	cli, srvRaw := net.Pipe()
	tp := &tap{}
	srv := &tapConn{Conn: srvRaw, tap: tp, server: true}
	const think = 20 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		for i := 0; i < 2; i++ {
			if _, err := srv.Read(buf[:4]); err != nil {
				done <- err
				return
			}
			time.Sleep(think)
			for _, part := range []string{"re", "ply"} {
				if _, err := srv.Write([]byte(part)); err != nil {
					done <- err
					return
				}
			}
		}
		done <- srv.Close()
	}()
	buf := make([]byte, 8)
	for i := 0; i < 2; i++ {
		if _, err := cli.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < 5; {
			n, err := cli.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
		time.Sleep(think) // client think time is not service time
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := tp.services.Load(); n != 2 {
		t.Fatalf("tap saw %d exchanges, want 2", n)
	}
	mean := time.Duration(tp.counts().serviceMeanUs() * 1e3)
	if mean < think || mean > think+think/2 {
		t.Errorf("mean service time %v, want about %v", mean, think)
	}
	if tp.reads.Load() != 2 || tp.writes.Load() != 4 || tp.readBytes.Load() != 8 || tp.writeBytes.Load() != 10 {
		t.Errorf("tap counted %d reads/%d B, %d writes/%d B", tp.reads.Load(), tp.readBytes.Load(), tp.writes.Load(), tp.writeBytes.Load())
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	v := func(val, lo, hi float64) value { return value{Value: val, Min: lo, Max: hi} }
	cases := []struct {
		def        metricDef
		base, cand value
		want       string
	}{
		{lower, v(1.00, 0.98, 1.02), v(1.05, 1.03, 1.07), verdictPass},
		{lower, v(1.00, 0.98, 1.02), v(1.20, 1.18, 1.22), verdictWorse},
		{higher, v(100, 98, 102), v(85, 84, 86), verdictWorse},
		{higher, v(100, 98, 102), v(120, 118, 122), verdictPass},
		// Slices wider than the bound: a median inside the bound proves nothing.
		{lower, v(1.00, 0.80, 1.30), v(1.05, 0.85, 1.40), verdictUnresolved},
		// ...unless every slice of one run beats every slice of the other.
		{lower, v(1.00, 0.80, 1.30), v(0.70, 0.60, 0.79), verdictPass},
		{lower, v(1.00, 0.80, 1.30), v(2.00, 1.60, 2.40), verdictWorse},
	}
	for i, c := range cases {
		if got := judge(c.def, c.base, c.cand); got != c.want {
			t.Errorf("case %d: judge = %s, want %s", i, got, c.want)
		}
	}
}

// TestCompareReports: two reports of the same numbers pass; a slower
// candidate or one with more failures makes -compare exit non-zero.
func TestCompareReports(t *testing.T) {
	mk := func(scale, failed float64) *report {
		r := &report{Provenance: provenance{Comparable: true}}
		w := &workloadResult{Name: "first-contact", FailedFrac: failed, EndToEnd: map[string]value{}}
		for _, d := range endToEndDefs {
			x := 10.0
			if d.Better == "lower" {
				x *= scale
			} else {
				x /= scale
			}
			w.EndToEnd[d.Name] = value{Value: x, Min: x, Max: x, Unit: d.Unit}
		}
		r.Workloads = []*workloadResult{w}
		return r
	}
	var out bytes.Buffer
	if code := compareReports(mk(1, 0), mk(1.005, 0), "base.json", &out); code != 0 {
		t.Errorf("equal reports: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(mk(1, 0), mk(1.5, 0), "base.json", &out); code == 0 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("slower candidate: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(mk(1, 0), mk(1, 0.01), "base.json", &out); code == 0 {
		t.Errorf("candidate with failures: exit %d\n%s", code, out.String())
	}
}

// TestRunRejectsBadUsage: the command exits non-zero without a result line
// when it cannot run.
func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "first-contact", "-trace", "2"},
		{"-seconds", "0"},
		{"-compare", "only-one.json"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}
