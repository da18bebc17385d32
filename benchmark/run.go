package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"fractal/internal/appserver"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/proxy"
)

const (
	// The platform is built several times so setup_s is a median: at least
	// minSetupRuns times, then on until setupFor has passed or maxSetupRuns
	// is reached, so a cheap build is sampled more often than a dear one.
	minSetupRuns = 3
	maxSetupRuns = 9
	setupFor     = 2 * time.Second
	// wallGuard fails a workload that runs longer than this.
	wallGuard = 120 * time.Second
	// replayBudget is how long each replayed function is timed for.
	replayBudget = 20 * time.Millisecond
)

// Pass lengths as shares of -seconds.
const (
	warmShare     = 0.10
	baselineShare = 0.30 // per-layer run: untraced pass the traced one is compared with
	tracedShare   = 0.50 // per-layer run
	tracedAfter   = 0.20 // full run: traced pass after the measured one
)

// runConfig is one workload run.
type runConfig struct {
	def      workloadDef
	seed     int64
	seconds  float64
	endToEnd bool // measured pass, end-to-end metrics
	perLayer bool // traced pass and replay, per-layer metrics
	traceOut string
	sizes    sizes
	// ops, when set, bounds every pass by ops per worker instead of time.
	ops     int
	corrupt bool
}

// workloadResult is what one workload run reports.
type workloadResult struct {
	Name       string           `json:"name"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	FailedFrac float64          `json:"failed_frac"`
	FirstError string           `json:"first_error,omitempty"`
	EndToEnd   map[string]value `json:"end_to_end,omitempty"`
	PerLayer   map[string]value `json:"per_layer,omitempty"`
	// Protocols are the protocols the workload's clients negotiated.
	Protocols []string `json:"protocols"`
	// UsefulBytes were handed to callers over all passes, WireBytes carried
	// them; with a fixed seed and op count both repeat exactly.
	UsefulBytes int64 `json:"useful_bytes"`
	WireBytes   int64 `json:"wire_bytes"`

	spans []span
}

// counters is a snapshot of every public Stats() the platform offers.
type counters struct {
	proxy  proxy.Stats
	cache  core.CacheStats
	app    appserver.Stats
	chunks codec.ChunkCacheStats
	// clientChunks sums the decode-side chunk caches of d's long-lived clients.
	clientChunks codec.ChunkCacheStats
	install      [2]int64 // ns, calls
}

func (b *bench) counters(d *driver) counters {
	return counters{
		proxy:        b.pf.px.Stats(),
		cache:        b.pf.px.CacheStats(),
		app:          b.pf.app.Stats(),
		chunks:       b.pf.app.ChunkCacheStats(),
		clientChunks: d.chunkStats(),
		install:      [2]int64{b.installNs, b.installs},
	}
}

func (cfg runConfig) limit(share float64) limit {
	if cfg.ops > 0 {
		return limit{ops: max(int(float64(cfg.ops)*share), 1)}
	}
	return limit{dur: time.Duration(cfg.seconds * share * float64(time.Second))}
}

// runWorkload runs every phase of one workload in this process: set-up,
// warm-up, then the measured pass with tracing off and/or the traced pass
// with layer replay.
func runWorkload(cfg runConfig) (res *workloadResult, err error) {
	began := time.Now()
	res = &workloadResult{Name: cfg.def.name}

	var setups []float64
	var pf *platform
	for i := 0; i < minSetupRuns || (cfg.ops == 0 && i < maxSetupRuns && time.Since(began) < setupFor); i++ {
		// Collect the discarded build, so its garbage neither slows the next
		// build nor counts in the run's peak memory. The pages stay mapped:
		// faulting fresh ones in is the part of a build the host's mood
		// decides, and every build after the first would pay it again.
		pf = nil
		runtime.GC()
		t0 := time.Now()
		if pf, err = buildPlatform(cfg.sizes.pages, cfg.def.proactive); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b := newBench(cfg.def, cfg.seed, cfg.sizes, pf)
	b.corrupt = cfg.corrupt

	ep, err := pf.serve(false)
	if err != nil {
		return nil, err
	}
	defer ep.close()

	var probe *pass
	if cfg.def.name != "first-contact" {
		if probe, err = b.probeTimeToProtocol(ep); err != nil {
			return nil, fmt.Errorf("time-to-protocol probe: %w", err)
		}
	}

	d, err := cfg.def.open(b, ep, nil)
	if err != nil {
		return nil, fmt.Errorf("opening workload: %w", err)
	}
	// Deferred calls run last-in first-out: clients close before the
	// daemons, whose Close waits for every session to end.
	defer d.shut()

	warm := newPass(cfg.limit(warmShare))
	warm.run(func(w int) { d.body(warm, w) })
	if err := passError(warm); err != nil && !cfg.corrupt {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	share := 1.0
	if !cfg.endToEnd {
		share = baselineShare
	}
	m := measured{pass: newPass(cfg.limit(share)), before: b.counters(d)}
	m.st = m.pass.run(func(w int) { d.body(m.pass, w) })
	m.after = b.counters(d)
	rss := peakRSSMiB()
	account(res, m.pass)
	if cfg.endToEnd {
		res.EndToEnd = endToEnd(m.pass, m.st, setups, probe, rss)
	}

	if cfg.perLayer {
		d.shut()
		tshare := tracedShare
		if cfg.endToEnd {
			tshare = tracedAfter
		}
		if err := b.perLayer(cfg, res, m, tshare); err != nil {
			return nil, err
		}
	}
	if wall := time.Since(began); wall > wallGuard {
		return nil, fmt.Errorf("workload took %s, over the %s guard", wall.Round(time.Second), wallGuard)
	}
	return res, nil
}

func passError(p *pass) error {
	for _, r := range p.recs {
		if r.firstErr != nil {
			return r.firstErr
		}
	}
	return nil
}

// account adds a pass's attempts and failures to the result.
func account(res *workloadResult, p *pass) {
	seen := map[string]bool{}
	for _, pr := range res.Protocols {
		seen[pr] = true
	}
	for _, r := range p.recs {
		for i := range r.slices {
			res.Attempted += r.slices[i].ops
		}
		res.Failed += r.failed
		if r.firstErr != nil && res.FirstError == "" {
			res.FirstError = r.firstErr.Error()
		}
		for pr, pp := range r.perProto {
			res.UsefulBytes += pp[0]
			res.WireBytes += pp[1]
			if !seen[pr] {
				seen[pr] = true
				res.Protocols = append(res.Protocols, pr)
			}
		}
	}
	sort.Strings(res.Protocols)
	if res.Attempted > 0 {
		res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
}

// sliceDurations are the wall seconds of each slice: equal by construction
// on a timed pass, except that the last one ends when the last op does.
func sliceDurations(p *pass, st *passStats) [numSlices]float64 {
	var out [numSlices]float64
	for i := range out {
		if p.lim.dur > 0 && i < numSlices-1 {
			out[i] = p.sliceDur.Seconds()
		} else if p.lim.dur > 0 {
			out[i] = (st.wall - time.Duration(numSlices-1)*p.sliceDur).Seconds()
		} else {
			out[i] = st.wall.Seconds() / numSlices
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics of a measured pass.
func endToEnd(p *pass, st *passStats, setups []float64, probe *pass, rss float64) map[string]value {
	durs := sliceDurations(p, st)
	var rate, p50, p99, ttp, cpu, goodput []float64
	var okOps, allOps, useful, wire, ttpSamples int64
	for i := 0; i < numSlices; i++ {
		var lats, ttps [][]int64
		var ops, bytes int64
		for _, r := range p.recs {
			s := &r.slices[i]
			lats = append(lats, s.latNs)
			ttps = append(ttps, s.ttpNs)
			ops += s.ops
			bytes += s.usefulBytes
		}
		lat := sortedCopy(lats...)
		okOps += int64(len(lat))
		allOps += ops
		useful += bytes
		if len(lat) == 0 || durs[i] <= 0 {
			continue
		}
		rate = append(rate, float64(len(lat))/durs[i])
		p50 = append(p50, percentile(lat, 0.50)/1e6)
		p99 = append(p99, percentile(lat, 0.99)/1e6)
		if p.lim.dur > 0 {
			cpu = append(cpu, float64(st.cpuAtEdge[i+1]-st.cpuAtEdge[i])/1e3/float64(ops))
		}
		goodput = append(goodput, float64(bytes)/1e6/durs[i])
		if t := sortedCopy(ttps...); len(t) > 0 {
			ttp = append(ttp, percentile(t, 0.50)/1e6)
			ttpSamples += int64(len(t))
		}
	}
	for _, r := range p.recs {
		for _, pp := range r.perProto {
			wire += pp[1]
		}
	}
	if probe != nil {
		ttp, ttpSamples = nil, 0
		for i := 0; i < numSlices; i++ {
			var lats [][]int64
			for _, r := range probe.recs {
				lats = append(lats, r.slices[i].latNs)
			}
			if t := sortedCopy(lats...); len(t) > 0 {
				ttp = append(ttp, percentile(t, 0.50)/1e6)
				ttpSamples += int64(len(t))
			}
		}
	}
	sort.Float64s(setups)
	ops := float64(max(allOps, 1))
	if p.lim.dur == 0 {
		// An op-bounded pass has no slice edges to sample CPU at.
		cpu = []float64{float64(st.cpuAtEdge[numSlices]-st.cpuAtEdge[0]) / 1e3 / ops}
	}
	out := map[string]value{
		"setup_s":                 {Value: median(setups), Min: setups[0], Max: setups[len(setups)-1], Samples: int64(len(setups))},
		"ops_per_s":               ofSlices(rate, okOps),
		"latency_p50_ms":          ofSlices(p50, okOps),
		"latency_p99_ms":          ofSlices(p99, okOps),
		"time_to_protocol_p50_ms": ofSlices(ttp, ttpSamples),
		"cpu_us_per_op":           ofSlices(cpu, allOps),
		"allocs_per_op":           single(float64(st.aft.Mallocs-st.before.Mallocs) / ops),
		"alloc_kb_per_op":         single(float64(st.aft.TotalAlloc-st.before.TotalAlloc) / 1024 / ops),
		"goodput_mb_s":            ofSlices(goodput, okOps),
		"wire_ratio":              single(float64(wire) / float64(max(useful, 1))),
		"peak_rss_mb":             single(rss),
	}
	for _, def := range endToEndDefs {
		v := out[def.Name]
		v.Unit = def.Unit
		out[def.Name] = v
	}
	return out
}

// probeTimeToProtocol times EnsureProtocol (negotiate, fetch, verify,
// deploy) on brand-new clients, the three stations in turn, from both
// workers at once as first-contact does. The returned pass holds the
// EnsureProtocol times as its latencies.
func (b *bench) probeTimeToProtocol(ep *endpoints) (*pass, error) {
	d := newDriver(b, nil)
	p := newPass(limit{ops: b.sizes.probeClients / workers})
	p.run(func(w int) {
		for n := 0; !p.done(n); n++ {
			env := b.envs[n%len(b.envs)]
			var t0, t1 time.Time
			cl, sess, err := d.newClient(b, ep, w, env)
			if err == nil {
				var pads []core.PADMeta
				t0 = time.Now()
				pads, err = cl.EnsureProtocol(appID)
				t1 = time.Now()
				sess.Close()
				if err == nil && !b.corrupt {
					err = b.checkProtocol(env, protoOf(pads))
				}
			}
			p.record(w, n, t0, t1, err)
		}
	})
	return p, passError(p)
}

// measured is the untraced pass with the counters read around it.
type measured struct {
	pass          *pass
	st            *passStats
	before, after counters
}

// perLayer runs the traced pass against tapped endpoints, replays the
// layers, and fills res.PerLayer; m is the untraced pass it is compared with.
func (b *bench) perLayer(cfg runConfig, res *workloadResult, m measured, share float64) error {
	tep, err := b.pf.serve(true)
	if err != nil {
		return err
	}
	defer tep.close()
	tr := &tracer{origin: time.Now()}
	td, err := cfg.def.open(b, tep, tr)
	if err != nil {
		return fmt.Errorf("opening traced workload: %w", err)
	}
	defer td.shut()
	// A short untimed pass first, so a persistent connection's JSON first
	// contact and its upgrade to binary frames are behind it.
	twarm := newPass(cfg.limit(warmShare * share))
	twarm.run(func(w int) { td.body(twarm, w) })
	td.resetTrace()
	base := readTaps(td, tep)

	tp := newPass(cfg.limit(share))
	tst := tp.run(func(w int) { td.body(tp, w) })
	account(res, tp)
	td.shut()
	res.spans = td.spans()
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, cfg.def.name, res.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	tc := readTaps(td, tep).since(base)
	if open := td.openSpans(); open != 0 {
		return fmt.Errorf("traced pass left %d span(s) open", open)
	}
	sum := summarize(res.spans)
	_, tops := passOps(tp)
	budget := replayBudget
	if cfg.ops > 0 {
		budget = replayBudget / 50
	}
	hitRatio := ratio(m.after.proxy.CacheHits-m.before.proxy.CacheHits, m.after.proxy.Negotiations-m.before.proxy.Negotiations)
	rp, err := b.replay(td, tc, sum, tops, hitRatio, budget)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	res.PerLayer = perLayerMetrics(b, m, tp, tst, tc, sum, rp)
	return nil
}

// tapped is what crossed the client side and each daemon's listener during
// the traced pass.
type tapped struct {
	client, proxy, edge, app tapCounts
}

func readTaps(d *driver, ep *endpoints) tapped {
	return tapped{
		client: d.clientTap.counts(), proxy: ep.proxyTap.counts(),
		edge: ep.edgeTap.counts(), app: ep.appTap.counts(),
	}
}

func (t tapped) since(base tapped) tapped {
	return tapped{
		client: t.client.since(base.client), proxy: t.proxy.since(base.proxy),
		edge: t.edge.since(base.edge), app: t.app.since(base.app),
	}
}

// resetTrace drops what opening and warming the driver recorded.
func (d *driver) resetTrace() {
	d.class = [workers][numClasses]int64{}
	for _, wt := range d.wts {
		if wt != nil {
			wt.spans = wt.spans[:0]
		}
	}
}

func (d *driver) openSpans() int {
	n := 0
	for _, wt := range d.wts {
		if wt != nil {
			n += len(wt.open)
		}
	}
	return n
}

func passOps(p *pass) (ok, all int64) {
	for _, r := range p.recs {
		for i := range r.slices {
			ok += int64(len(r.slices[i].latNs))
			all += r.slices[i].ops
		}
	}
	return ok, all
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayerMetrics assembles the per-layer numbers: span means from the
// traced pass, counter deltas from the untraced pass, function times from
// the replay. A layer no call reached reports zero throughout.
func perLayerMetrics(b *bench, m measured, tp *pass, tst *passStats, tc tapped, sum map[string]spanStat, rp *replayed) map[string]value {
	out := map[string]float64{}
	meas, st, before, after := m.pass, m.st, m.before, m.after
	_, ops := passOps(meas)
	tok, tops := passOps(tp)

	// (a) spans and taps, traced pass.
	out["client.dial_us"] = sum[spDial].meanUs()
	out["client.negotiate_us"] = sum[spNegotiate].meanUs()
	out["client.fetch_pad_us"] = sum[spFetchPAD].meanUs()
	out["client.app_exchange_us"] = sum[spAppExchange].meanUs()
	out["client.ensure_self_us"] = sum[spEnsure].selfMeanUs()
	out["client.request_self_us"] = sum[spRequest].selfMeanUs()
	for _, p := range protocols {
		out["client.request_us."+p] = sum[spRequest+"."+p].meanUs()
	}
	out["inp.bytes_per_op"] = ratio(tc.client.readBytes+tc.client.writeBytes, tops)
	out["inp.writes_per_op"] = ratio(tc.client.writes+tc.proxy.writes+tc.edge.writes+tc.app.writes, tops)
	out["inp.reads_per_op"] = ratio(tc.client.reads+tc.proxy.reads+tc.edge.reads+tc.app.reads, tops)
	out["proxy.service_us"] = tc.proxy.serviceMeanUs()
	out["cdn.service_us"] = tc.edge.serviceMeanUs()
	out["cdn.bytes_per_fetch"] = ratio(tc.edge.writeBytes, tc.edge.services)
	out["appserver.service_us"] = tc.app.serviceMeanUs()

	// (c) counter deltas, untraced pass.
	px := after.proxy
	px.Negotiations -= before.proxy.Negotiations
	px.CacheHits -= before.proxy.CacheHits
	px.Searches -= before.proxy.Searches
	px.CollapsedSearches -= before.proxy.CollapsedSearches
	px.TotalSearchNanos -= before.proxy.TotalSearchNanos
	out["proxy.cache_hit_ratio"] = ratio(px.CacheHits, px.Negotiations)
	out["proxy.searches_per_op"] = ratio(px.Searches, ops)
	out["proxy.collapsed_per_op"] = ratio(px.CollapsedSearches, ops)
	out["proxy.search_us"] = ratio(px.TotalSearchNanos, px.Searches) / 1e3
	hits, misses := after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses
	out["core.cache_evictions_per_op"] = ratio(after.cache.Evictions-before.cache.Evictions, ops)
	out["core.cache_miss_ratio"] = ratio(misses, hits+misses)
	chHits, chMisses := after.chunks.Hits-before.chunks.Hits, after.chunks.Misses-before.chunks.Misses
	out["codec.server_chunk_hit_ratio"] = ratio(chHits, chHits+chMisses)
	ccHits, ccMisses := after.clientChunks.Hits-before.clientChunks.Hits, after.clientChunks.Misses-before.clientChunks.Misses
	out["codec.client_chunk_hit_ratio"] = ratio(ccHits, ccHits+ccMisses)
	wire := map[string][2]int64{}
	for _, r := range meas.recs {
		for p, pp := range r.perProto {
			w := wire[p]
			w[0] += pp[0]
			w[1] += pp[1]
			wire[p] = w
		}
	}
	for _, p := range protocols {
		out["codec.wire_ratio."+p] = ratio(wire[p][1], wire[p][0])
	}
	reqs := after.app.Requests - before.app.Requests
	out["appserver.install_update_ms"] = ratio(after.install[0]-before.install[0], after.install[1]-before.install[1]) / 1e6
	out["appserver.precompute_hit_ratio"] = ratio(after.app.PrecomputeHits-before.app.PrecomputeHits, reqs)
	out["appserver.reactive_per_op"] = ratio(after.app.ReactiveEncod-before.app.ReactiveEncod, ops)
	out["runtime.gc_cycles_per_kop"] = 1000 * ratio(int64(st.aft.NumGC-st.before.NumGC), ops)
	out["runtime.gc_pause_ms_total"] = float64(st.aft.PauseTotalNs-st.before.PauseTotalNs) / 1e6

	// (b) replayed layer times.
	for k, v := range rp.metrics {
		out[k] = v
	}

	// What the named layers explain of the mean traced op.
	if opUs := sum[rootSpan(b.def)].meanUs(); opUs > 0 {
		out["session.unattributed_frac"] = 1 - rp.leafUs/opUs
	}
	mok, _ := passOps(meas)
	if base := float64(mok) / st.wall.Seconds(); base > 0 {
		out["trace.overhead_frac"] = 1 - float64(tok)/tst.wall.Seconds()/base
	}

	vals := make(map[string]value, len(perLayerDefs))
	for _, def := range perLayerDefs {
		v := single(out[def.Name])
		v.Unit = def.Unit
		vals[def.Name] = v
	}
	return vals
}

// rootSpan is the span that covers one whole op of a workload.
func rootSpan(def workloadDef) string {
	switch def.name {
	case "first-contact":
		return spSession
	case "negotiate-persistent":
		return spNegotiate
	}
	return spRequest
}
