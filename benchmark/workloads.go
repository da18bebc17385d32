package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"fractal/internal/client"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/workload"
)

// workloadDef names a workload. The names are fixed: later issues cite them.
type workloadDef struct {
	name      string
	proactive bool
	open      func(*bench, *endpoints, *tracer) (*driver, error)
}

var workloadDefs = []workloadDef{
	{name: "first-contact", open: openFirstContact},
	{name: "negotiate-persistent", open: openNegotiatePersistent},
	{name: "steady-reactive", open: openSteady},
	{name: "steady-proactive", proactive: true, open: openSteady},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// sizes are the corpus-shaped constants of the steady workloads. Runs use
// paperSizes; the smoke test shrinks them to stay fast under -race.
type sizes struct {
	pages       int // corpus size
	updatePages int // pages a content update touches, steady-reactive
	forgetPages int // pages each client forgets per round, steady-reactive
	hotKeys     int // negotiate-persistent: hot environment keys
	coldKeys    int // negotiate-persistent: pool the other draws come from
	// probeClients is how many brand-new clients time EnsureProtocol on the
	// workloads whose own ops never negotiate from cold.
	probeClients int
	// replayPages is how many pages the replayed content costs average over.
	replayPages int
}

var paperSizes = sizes{
	pages: workload.DefaultPages, updatePages: 15, forgetPages: 5,
	hotKeys: 256, coldKeys: 4 * cacheCapacity, probeClients: 3000, replayPages: 4,
}

// bench is one workload's state that outlives a pass: the platform, the
// seed, and the per-worker positions in the seeded op streams, so a traced
// pass continues the streams of the measured pass instead of repeating them.
type bench struct {
	def   workloadDef
	seed  int64
	sizes sizes
	pf    *platform
	envs  []core.Env
	pages []string
	// perturbed counts the never-seen environments each worker has used.
	perturbed [workers]int
	// corrupt makes every expectation wrong; the smoke test uses it to show
	// that a wrong output raises failed_frac.
	corrupt bool
	// installNs/installs time InstallCorpus on steady-reactive.
	installNs, installs int64
	updateRng           *rand.Rand
}

func newBench(def workloadDef, seed int64, sz sizes, pf *platform) *bench {
	b := &bench{def: def, seed: seed, sizes: sz, pf: pf, envs: stationEnvs()}
	for _, p := range pf.latest {
		b.pages = append(b.pages, p.ID)
	}
	b.updateRng = rand.New(rand.NewSource(seed ^ 0x5eed0002))
	return b
}

// driver is a workload opened against one set of endpoints: body is the
// closed loop of worker w for one pass.
type driver struct {
	body func(p *pass, w int)
	// close releases the workload's connections; call shut, which is
	// idempotent.
	close func()
	// class counts requests by what the server had to do (traced pass).
	class [workers][numClasses]int64
	// clientTap sees the client side of every connection (traced pass).
	clientTap *tap
	wts       [workers]*workerTrace
	// rngs are the workers' seeded streams; a pass continues where the
	// previous pass of this driver stopped.
	rngs [workers]*rand.Rand
	// chunkStats sums the decode-side chunk caches of the long-lived clients.
	chunkStats func() codec.ChunkCacheStats
}

func (d *driver) shut() {
	if d.close != nil {
		d.close()
		d.close = nil
	}
}

func (d *driver) spans() []span {
	var out []span
	for _, wt := range d.wts {
		if wt != nil {
			out = append(out, wt.spans...)
		}
	}
	return out
}

func newDriver(b *bench, tr *tracer) *driver {
	d := &driver{chunkStats: func() codec.ChunkCacheStats { return codec.ChunkCacheStats{} }}
	for w := range d.rngs {
		// The measured and the traced driver draw from separate streams.
		seq := 0
		if tr != nil {
			seq = 1
		}
		d.rngs[w] = rand.New(rand.NewSource(b.seed*1_000_003 + int64(seq)*101 + int64(w)))
	}
	if tr != nil {
		d.clientTap = &tap{}
		for w := range d.wts {
			d.wts[w] = tr.worker(w)
		}
	}
	return d
}

// dialer is the DialFunc for worker w's connections.
func (d *driver) dialer(w int) client.DialFunc {
	if d.wts[w] == nil {
		return lingerDial
	}
	return tracedDial(d.wts[w], d.clientTap)
}

// newClient builds the real client stack for env against ep, with the
// timing decorators in place when the driver is traced.
func (d *driver) newClient(b *bench, ep *endpoints, w int, env core.Env) (*client.Client, *client.TCPAppSession, error) {
	dial := d.dialer(w)
	sess, err := client.DialAppSession(ep.appAddr, client.SessionConfig{Dial: dial})
	if err != nil {
		return nil, nil, err
	}
	var neg client.Negotiator = &client.TCPNegotiator{Addr: ep.proxyAddr, Dial: dial}
	var pads client.PADFetcher = &client.TCPPADFetcher{Addr: ep.edgeAddr, Dial: dial}
	var content client.ContentFetcher = sess
	if wt := d.wts[w]; wt != nil {
		neg = tracedNegotiator{neg, wt}
		pads = tracedPADFetcher{pads, wt}
		content = tracedContent{content, wt, &d.class[w]}
	}
	cl, err := client.New(b.pf.clientConfig(env), neg, pads, content)
	if err != nil {
		sess.Close()
		return nil, nil, err
	}
	return cl, sess, nil
}

func protoOf(pads []core.PADMeta) string {
	if len(pads) == 0 {
		return ""
	}
	return pads[len(pads)-1].Protocol
}

// checkProtocol compares a negotiated protocol with the oracle's.
func (b *bench) checkProtocol(env core.Env, got string) error {
	want, err := b.pf.expected(env)
	if err != nil {
		return err
	}
	if b.corrupt {
		want += "-corrupted"
	}
	if got != want {
		return fmt.Errorf("negotiated %q for %s/%.0f MHz, oracle says %q", got, env.Dev.CPUType, env.Dev.CPUMHz, want)
	}
	return nil
}

// checkContent compares decoded bytes with the server's current version.
// A full compare is stronger than a digest compare and costs a tenth of
// SHA-1 inside the measured window.
func (b *bench) checkContent(resource string, got []byte) error {
	want, _, err := b.pf.app.Current(resource)
	if err != nil {
		return err
	}
	if b.corrupt {
		want = want[1:]
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("decoded %s differs from the server's current version (%d vs %d bytes)", resource, len(got), len(want))
	}
	return nil
}

// --- first-contact ---

func openFirstContact(b *bench, ep *endpoints, tr *tracer) (*driver, error) {
	d := newDriver(b, tr)
	d.body = func(p *pass, w int) {
		rng := d.rngs[w]
		wt := d.wts[w]
		rec := p.recs[w]
		// Stations come in equal thirds: a shuffled deck of the three, redealt
		// when empty.
		var deck []int
		for n := 0; !p.done(n); n++ {
			if len(deck) == 0 {
				deck = rng.Perm(len(b.envs))
			}
			env := b.envs[deck[0]]
			deck = deck[1:]
			if rng.Intn(5) == 0 {
				// A CPU speed no session has reported before: the proxy's
				// adaptation cache cannot hold it, so the path search runs.
				b.perturbed[w]++
				env.Dev.CPUMHz += float64(workers*b.perturbed[w] + w)
			}
			page := b.pages[rng.Intn(len(b.pages))]
			wt.setOp(n)

			root := wt.begin(spSession)
			start := time.Now()
			var proto string
			var ttp time.Duration
			var got []byte
			cl, sess, err := d.newClient(b, ep, w, env)
			if err == nil {
				es := wt.begin(spEnsure)
				t0 := time.Now()
				var pads []core.PADMeta
				pads, err = cl.EnsureProtocol(appID)
				ttp = time.Since(t0)
				proto = protoOf(pads)
				wt.end(es, proto)
				if err == nil {
					rs := wt.begin(spRequest)
					got, err = cl.Request(appID, page)
					wt.end(rs, proto)
				}
			}
			end := time.Now()
			wt.end(root, proto)
			if sess != nil {
				sess.Close()
			}
			if err == nil {
				err = b.checkProtocol(env, proto)
			}
			if err == nil {
				err = b.checkContent(page, got)
			}
			s := p.record(w, n, start, end, err)
			if err == nil {
				s.ttpNs = append(s.ttpNs, ttp.Nanoseconds())
				st := cl.Stats()
				rec.addBytes(s, proto, st.ContentBytes, st.PayloadBytes)
			}
		}
	}
	return d, nil
}

// --- negotiate-persistent ---

// inpHeaderLen is the fixed INP frame header (magic, version, type,
// reserved, seq, length).
const inpHeaderLen = 16

// keyEnv is the idx-th environment of negotiate-persistent's key space:
// the three stations in turn, each at a CPU speed of its own.
func (b *bench) keyEnv(idx int) core.Env {
	env := b.envs[idx%len(b.envs)]
	env.Dev.CPUMHz += float64(idx / len(b.envs))
	return env
}

func openNegotiatePersistent(b *bench, ep *endpoints, tr *tracer) (*driver, error) {
	d := newDriver(b, tr)
	nKeys := b.sizes.hotKeys + b.sizes.coldKeys
	want := make([]string, nKeys)
	for i := range want {
		p, err := b.pf.expected(b.keyEnv(i))
		if err != nil {
			return nil, err
		}
		if b.corrupt {
			p += "-corrupted"
		}
		want[i] = p
	}
	conns := make([]net.Conn, workers)
	for w := range conns {
		c, err := d.dialer(w)("tcp", ep.proxyAddr)
		if err != nil {
			for _, c := range conns[:w] {
				c.Close()
			}
			return nil, err
		}
		conns[w] = c
	}
	d.close = func() {
		for _, c := range conns {
			c.Close()
		}
	}
	ics := make([]*inp.Conn, workers)
	for w := range ics {
		ics[w] = inp.NewConn(conns[w])
	}
	d.body = func(p *pass, w int) {
		rng := d.rngs[w]
		wt := d.wts[w]
		rec := p.recs[w]
		c := ics[w]
		for n := 0; !p.done(n); n++ {
			// Half the draws come from the hot set, which fits the adaptation
			// cache; half from a pool four times the cache, which does not:
			// about 0.6 of negotiations hit and the rest search and evict.
			key := rng.Intn(b.sizes.hotKeys)
			if rng.Intn(2) == 0 {
				key = b.sizes.hotKeys + rng.Intn(b.sizes.coldKeys)
			}
			env := b.keyEnv(key)
			wt.setOp(n)
			sp := wt.begin(spNegotiate)
			start := time.Now()
			pads, wire, useful, err := negotiateOnce(c, env)
			end := time.Now()
			proto := protoOf(pads)
			wt.end(sp, "")
			if err == nil && proto != want[key] {
				err = fmt.Errorf("negotiated %q for key %d, oracle says %q", proto, key, want[key])
			}
			s := p.record(w, n, start, end, err)
			if err == nil {
				rec.addBytes(s, proto, useful, wire)
			}
		}
	}
	return d, nil
}

// negotiateOnce runs one Figure 4 exchange on a persistent connection:
// INIT_REQ and CLI_META_REP queued behind one flush, three replies. It
// returns the bytes the replies took on the wire and the bytes of the one
// the caller wanted, the PAD_META_REP body.
func negotiateOnce(c *inp.Conn, env core.Env) (pads []core.PADMeta, wire, useful int64, err error) {
	if err = c.Queue(inp.MsgInitReq, inp.InitReq{AppID: appID, WireVersion: inp.Version2}); err != nil {
		return nil, 0, 0, err
	}
	if err = c.Queue(inp.MsgCliMetaRep, inp.CliMetaRep{Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: sessionRequests}); err != nil {
		return nil, 0, 0, err
	}
	if err = c.Flush(); err != nil {
		return nil, 0, 0, err
	}
	recv := func(want inp.MsgType, into interface{}) (int64, error) {
		h, raw, err := c.Recv()
		if err != nil {
			return 0, err
		}
		if h.Type != want {
			return 0, fmt.Errorf("expected %v, got %v", want, h.Type)
		}
		return int64(len(raw)), inp.DecodeRaw(h, raw, into)
	}
	var initRep inp.InitRep
	var tmpl inp.CliMetaReq
	var rep inp.PADMetaRep
	n1, err := recv(inp.MsgInitRep, &initRep)
	if err != nil {
		return nil, 0, 0, err
	}
	if !initRep.OK {
		return nil, 0, 0, errors.New("proxy refused negotiation: " + initRep.Reason)
	}
	n2, err := recv(inp.MsgCliMetaReq, &tmpl)
	if err != nil {
		return nil, 0, 0, err
	}
	n3, err := recv(inp.MsgPADMetaRep, &rep)
	if err != nil {
		return nil, 0, 0, err
	}
	return rep.PADs, 3*inpHeaderLen + n1 + n2 + n3, n3, nil
}

// --- steady-reactive and steady-proactive ---

// steadyClient is one long-lived client of a steady workload.
type steadyClient struct {
	cl    *client.Client
	sess  *client.TCPAppSession
	proto string
	last  client.Stats
}

// barrier lets the workers of a round wait for each other.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
	gen     int
}

func newBarrier() *barrier {
	b := &barrier{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == workers {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// openSteady gives each worker three long-lived clients, one per station,
// and fetches every page cold through each, so a pass starts from clients
// that hold the whole corpus.
func openSteady(b *bench, ep *endpoints, tr *tracer) (*driver, error) {
	d := newDriver(b, tr)
	var clients [workers][]*steadyClient
	d.close = func() {
		for w, cs := range clients {
			for _, c := range cs {
				c.sess.Close()
			}
			clients[w] = nil // each client holds the whole corpus
		}
	}
	d.chunkStats = func() codec.ChunkCacheStats {
		var total codec.ChunkCacheStats
		for _, cs := range clients {
			for _, c := range cs {
				st := c.cl.DecodeCacheStats()
				total.Hits += st.Hits
				total.Misses += st.Misses
			}
		}
		return total
	}
	for w := 0; w < workers; w++ {
		for _, env := range b.envs {
			cl, sess, err := d.newClient(b, ep, w, env)
			if err != nil {
				d.shut()
				return nil, err
			}
			sc := &steadyClient{cl: cl, sess: sess}
			clients[w] = append(clients[w], sc)
			pads, err := cl.EnsureProtocol(appID)
			if err == nil {
				sc.proto = protoOf(pads)
				err = b.checkProtocol(env, sc.proto)
			}
			for _, page := range b.pages {
				if err != nil {
					break
				}
				var got []byte
				if got, err = cl.Request(appID, page); err == nil {
					err = b.checkContent(page, got)
				}
			}
			if err != nil {
				d.shut()
				return nil, fmt.Errorf("warming %s client: %w", env.Dev.CPUType, err)
			}
			sc.last = cl.Stats()
		}
	}

	bar := newBarrier()
	stop := false
	d.body = func(p *pass, w int) {
		rng := d.rngs[w]
		wt := d.wts[w]
		rec := p.recs[w]
		type req struct{ client, page int }
		plan := make([]req, 0, len(clients[w])*len(b.pages))
		// Without updates a forgotten page is the only request that moves
		// content, so steady-proactive forgets a third of the corpus per round:
		// every round has the same mix, and the median request is a
		// re-request of a held page rather than the edge between two modes.
		forget := b.sizes.forgetPages
		if b.def.proactive {
			forget = len(b.pages) / 3
		}
		n := 0
		for {
			bar.wait()
			if w == 0 {
				stop = p.done(n)
				if !stop && !b.def.proactive {
					if err := b.installUpdate(); err != nil && rec.firstErr == nil {
						rec.firstErr = err
						rec.failed++
					}
				}
			}
			bar.wait()
			if stop {
				return
			}
			plan = plan[:0]
			for ci, sc := range clients[w] {
				for _, pi := range rng.Perm(len(b.pages))[:forget] {
					sc.cl.Forget(b.pages[pi])
				}
				for pi := range b.pages {
					plan = append(plan, req{ci, pi})
				}
			}
			rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
			for _, r := range plan {
				if p.done(n) {
					break
				}
				sc, page := clients[w][r.client], b.pages[r.page]
				wt.setOp(n)
				sp := wt.begin(spRequest)
				start := time.Now()
				got, err := sc.cl.Request(appID, page)
				end := time.Now()
				wt.end(sp, sc.proto)
				if err == nil {
					err = b.checkContent(page, got)
				}
				s := p.record(w, n, start, end, err)
				n++
				if err == nil {
					st := sc.cl.Stats()
					rec.addBytes(s, sc.proto, st.ContentBytes-sc.last.ContentBytes, st.PayloadBytes-sc.last.PayloadBytes)
					sc.last = st
				}
			}
		}
	}
	return d, nil
}

// installUpdate publishes the next content update: a new version of
// updatePages seeded pages, as one InstallCorpus call, which is timed.
func (b *bench) installUpdate() error {
	upd := &workload.Corpus{}
	for _, pi := range b.updateRng.Perm(len(b.pages))[:b.sizes.updatePages] {
		next, err := workload.MutateRand(b.updateRng, b.pf.latest[pi], workload.DefaultMutation(0))
		if err != nil {
			return err
		}
		b.pf.prev[pi], b.pf.latest[pi] = b.pf.latest[pi], next
		upd.Pages = append(upd.Pages, next)
	}
	start := time.Now()
	err := b.pf.app.InstallCorpus(upd)
	b.installNs += time.Since(start).Nanoseconds()
	b.installs++
	return err
}

// stationProtocols are what the three stations negotiate on each platform;
// the smoke test pins them.
func stationProtocols(proactive bool) []string {
	if proactive {
		return []string{codec.NameDirect, codec.NameGzip, codec.NameVaryBlock}
	}
	return []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap}
}
