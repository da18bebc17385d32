package fractal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/experiment"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
	"fractal/internal/workload"
)

// The benchmarks in this file regenerate the paper's evaluation, one bench
// per table/figure (see DESIGN.md's per-experiment index), plus ablations
// of the design choices. Use
//
//	go test -bench=. -benchmem
//
// or cmd/fractal-bench for the tabular series.

var (
	benchOnce  sync.Once
	benchSetup *experiment.Setup
	benchErr   error
)

func getSetup(b *testing.B) *experiment.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchSetup, benchErr = experiment.NewSetup(experiment.DefaultSetupConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

// BenchmarkTable1BuildPADs measures building, signing, and packing the
// case-study PAD module set (Table 1).
func BenchmarkTable1BuildPADs(b *testing.B) {
	signer, err := mobilecode.NewSigner("bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range mobilecode.BuiltinSpecs() {
			m, err := mobilecode.BuildModule(spec, "1.0", signer)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Pack(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig9aNegotiation measures one proxy negotiation, the quantity
// averaged in Figure 9(a): cold (path search) and warm (adaptation cache).
func BenchmarkFig9aNegotiation(b *testing.B) {
	s := getSetup(b)
	envs := make([]core.Env, 0, 3)
	for _, st := range netsim.Stations() {
		envs = append(envs, experiment.EnvFor(st))
	}
	b.Run("warm-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Proxy.Negotiate("webapp", envs[i%len(envs)], 75); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-search", func(b *testing.B) {
		// Distinct CPU speeds defeat the cache, measuring the raw
		// adaptation path search + Equation 3 marking.
		px, err := proxy.New(s.Model, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if err := px.PushAppMeta(s.AppMeta); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env := envs[i%len(envs)]
			env.Dev.CPUMHz = float64(400 + i%100000)
			if _, err := px.Negotiate("webapp", env, 75); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9bPADRetrieval evaluates the contention model behind Figure
// 9(b) at 300 simultaneous clients.
func BenchmarkFig9bPADRetrieval(b *testing.B) {
	s := getSetup(b)
	if _, err := experiment.RunFig9b(s, []int{1}); err != nil { // publishes /pads/_avg
		b.Fatal(err)
	}
	b.Run("centralized-300", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := s.CDN.RetrieveCentralized("/pads/_avg", netsim.WLAN, 300)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(r.Time.Seconds(), "sim-sec/retrieval")
			}
		}
	})
	b.Run("distributed-300", func(b *testing.B) {
		perEdge := (300 + len(s.CDN.Edges()) - 1) / len(s.CDN.Edges())
		for i := 0; i < b.N; i++ {
			r, err := s.CDN.Retrieve("region-0", "/pads/_avg", netsim.WLAN, perEdge)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(r.Time.Seconds(), "sim-sec/retrieval")
			}
		}
	})
}

// benchPair returns a representative (old, cur) page pair from the corpus.
func benchPair(b *testing.B, s *experiment.Setup) (old, cur []byte) {
	b.Helper()
	return s.V1.Pages[0].Bytes(), s.V2.Pages[0].Bytes()
}

// BenchmarkFig10ComputeOverhead measures the real encode (server-side) and
// decode (client-side) computing cost of each protocol on the corpus, the
// quantities Figure 10 decomposes.
func BenchmarkFig10ComputeOverhead(b *testing.B) {
	s := getSetup(b)
	old, cur := benchPair(b, s)
	for _, name := range []string{codec.NameBitmap, codec.NameDirect, codec.NameGzip, codec.NameRsync, codec.NameVaryBlock} {
		c, err := codec.New(name)
		if err != nil {
			b.Fatal(err)
		}
		payload, err := c.Encode(old, cur)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/server-encode", func(b *testing.B) {
			b.SetBytes(int64(len(cur)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(old, cur); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/client-decode", func(b *testing.B) {
			b.SetBytes(int64(len(cur)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(old, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCorpus returns all (old, cur) page pairs of the 75-page corpus.
func benchCorpus(b *testing.B, s *experiment.Setup) (olds, curs [][]byte) {
	b.Helper()
	olds = make([][]byte, len(s.V1.Pages))
	curs = make([][]byte, len(s.V2.Pages))
	for i := range s.V1.Pages {
		olds[i] = s.V1.Pages[i].Bytes()
		curs[i] = s.V2.Pages[i].Bytes()
	}
	return olds, curs
}

// BenchmarkVaryEncodeHot measures VaryBlock.Encode over the full corpus with
// a warm shared chunk-index cache — the appserver's steady state, where every
// session re-encodes pages whose indexes are already cached.
func BenchmarkVaryEncodeHot(b *testing.B) {
	s := getSetup(b)
	olds, curs := benchCorpus(b, s)
	vb, err := codec.NewVaryBlock()
	if err != nil {
		b.Fatal(err)
	}
	// Size the cache to hold both versions of every page so the timed loop
	// never evicts.
	cache := codec.NewChunkCache(2*len(olds) + 2)
	vb.UseChunkCache(cache)
	var total int64
	for i := range olds {
		out, err := vb.Encode(olds[i], curs[i])
		if err != nil {
			b.Fatal(err)
		}
		total += int64(len(curs[i]))
		_ = out
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range olds {
			if _, err := vb.Encode(olds[j], curs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(total)
}

// BenchmarkVaryEncodeCold measures the same corpus sweep through a stateless
// VaryBlock: every encode re-chunks and re-digests both versions from
// scratch. The hot/cold ratio is the chunk-index cache's payoff.
func BenchmarkVaryEncodeCold(b *testing.B) {
	s := getSetup(b)
	olds, curs := benchCorpus(b, s)
	vb, err := codec.NewVaryBlock()
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for i := range olds {
		total += int64(len(curs[i]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range olds {
			if _, err := vb.Encode(olds[j], curs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(total)
}

// BenchmarkFig11aBytesTransferred reports the measured per-request bytes
// of each protocol (Figure 11(a)) as benchmark metrics.
func BenchmarkFig11aBytesTransferred(b *testing.B) {
	s := getSetup(b)
	for _, name := range []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock} {
		b.Run(name, func(b *testing.B) {
			pad, err := s.PADByProtocol(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_ = pad
			}
			b.ReportMetric(float64(pad.Overhead.TrafficBytes+pad.Overhead.UpstreamBytes), "wire-bytes/request")
		})
	}
}

// BenchmarkFig11TotalTime evaluates the full Figure 11(b)/(c) grids.
func BenchmarkFig11TotalTime(b *testing.B) {
	s := getSetup(b)
	b.Run("with-server-comp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiment.RunFig11Grid(s, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-server-comp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiment.RunFig11Grid(s, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHeadline evaluates the abstract's savings computation.
func BenchmarkHeadline(b *testing.B) {
	s := getSetup(b)
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunHeadline(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.BestVsNone*100, "savings-vs-none-%")
			b.ReportMetric(r.BestVsStatic*100, "savings-vs-static-%")
		}
	}
}

// --- ablations of design choices called out in DESIGN.md ---

// BenchmarkAblationAdaptationCache compares negotiation with the
// distribution manager's cache against repeated raw searches.
func BenchmarkAblationAdaptationCache(b *testing.B) {
	s := getSetup(b)
	env := experiment.EnvFor(netsim.PDA)
	b.Run("cache-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Proxy.Negotiate("webapp", env, 75); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-off", func(b *testing.B) {
		pat, err := core.BuildPAT(s.AppMeta)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := core.FindPath(pat, s.Model, env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGzipLevel sweeps compression levels (server-side
// compute vs bytes trade-off).
func BenchmarkAblationGzipLevel(b *testing.B) {
	s := getSetup(b)
	_, cur := benchPair(b, s)
	for _, level := range []int{1, 6, 9} {
		b.Run(fmt.Sprintf("level-%d", level), func(b *testing.B) {
			g, err := codec.NewGzipLevel(level)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(cur)))
			var out []byte
			for i := 0; i < b.N; i++ {
				out, err = g.Encode(nil, cur)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(out)), "wire-bytes")
		})
	}
}

// BenchmarkAblationBitmapBlock sweeps the fixed block size.
func BenchmarkAblationBitmapBlock(b *testing.B) {
	s := getSetup(b)
	old, cur := benchPair(b, s)
	for _, block := range []int{256, 512, 2048, 8192} {
		b.Run(fmt.Sprintf("block-%d", block), func(b *testing.B) {
			bm, err := codec.NewBitmap(block)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(cur)))
			var out []byte
			for i := 0; i < b.N; i++ {
				out, err = bm.Encode(old, cur)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(int64(len(out))+bm.UpstreamBytes(old)), "wire-bytes")
		})
	}
}

// BenchmarkAblationVaryChunk sweeps the expected content-defined chunk
// size (mask width).
func BenchmarkAblationVaryChunk(b *testing.B) {
	s := getSetup(b)
	old, cur := benchPair(b, s)
	for _, bits := range []int{8, 9, 11, 13} {
		b.Run(fmt.Sprintf("maskbits-%d", bits), func(b *testing.B) {
			hosts, err := mobilecode.HostTable(map[string]string{"vary.maskbits": fmt.Sprint(bits)})
			if err != nil {
				b.Fatal(err)
			}
			var enc func(*mobilecode.Codecs, *codec.Held, [][]byte) ([][]byte, error)
			for _, h := range hosts {
				if h.Name == "vary.encode" {
					enc = h.Fn
				}
			}
			b.SetBytes(int64(len(cur)))
			var out [][]byte
			for i := 0; i < b.N; i++ {
				out, err = enc(nil, nil, [][]byte{old, cur})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(out[0])), "wire-bytes")
		})
	}
}

// BenchmarkAblationPATDepth measures path-search cost on deeper trees than
// the case study's one-level PAT.
func BenchmarkAblationPATDepth(b *testing.B) {
	var ms core.Matrices
	for _, m := range []struct {
		dst       **core.RatioMatrix
		name, col string
	}{{&ms.A, "A", "any-cpu"}, {&ms.B, "B", "any-os"}, {&ms.R, "R", "any-net"}} {
		// The pure linear model: every environment ratio is 1.
		r, err := core.NewRatioMatrix(m.name, []string{"p"}, []string{m.col}, [][]float64{{1}})
		if err != nil {
			b.Fatal(err)
		}
		*m.dst = r
	}
	model := core.OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	env := core.Env{
		Dev:  core.DevMeta{OSType: "os", CPUType: "cpu", CPUMHz: 500, MemMB: 64},
		Ntwk: core.NtwkMeta{NetworkType: "net", BandwidthKbps: 1000},
	}
	for _, depth := range []int{1, 3, 5, 7} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			app := deepApp(depth, 3)
			pat, err := core.BuildPAT(app)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.FindPath(pat, model, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// deepApp builds a complete tree of the given depth and fanout.
func deepApp(depth, fanout int) core.AppMeta {
	app := core.AppMeta{AppID: fmt.Sprintf("deep-%d", depth)}
	var build func(parent string, level int)
	id := 0
	build = func(parent string, level int) {
		if level > depth {
			return
		}
		for f := 0; f < fanout; f++ {
			id++
			name := fmt.Sprintf("n%d", id)
			meta := core.PADMeta{
				ID: name, Protocol: "p", Parent: parent,
				Overhead: core.PADOverhead{ClientCompStd: time.Duration(id) * time.Millisecond},
			}
			app.PADs = append(app.PADs, meta)
			build(name, level+1)
		}
	}
	build("", 1)
	// Fill Children links from Parent fields.
	children := map[string][]string{}
	for _, p := range app.PADs {
		if p.Parent != "" {
			children[p.Parent] = append(children[p.Parent], p.ID)
		}
	}
	for i := range app.PADs {
		app.PADs[i].Children = children[app.PADs[i].ID]
	}
	return app
}

// benchLoader builds the signed builtin PAD modules and a loader that
// trusts their signer and runs the production deployment pipeline (the
// bytecode verifier installed, as client.New installs it).
func benchLoader(b *testing.B) ([]*mobilecode.Module, *mobilecode.Loader) {
	b.Helper()
	signer, err := mobilecode.NewSigner("bench")
	if err != nil {
		b.Fatal(err)
	}
	var mods []*mobilecode.Module
	for _, spec := range mobilecode.BuiltinSpecs() {
		m, err := mobilecode.BuildModule(spec, "1.0", signer)
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, m)
	}
	trust := mobilecode.NewTrustList()
	if err := trust.Add(signer.Entity, signer.PublicKey()); err != nil {
		b.Fatal(err)
	}
	loader, err := mobilecode.NewLoader(trust, mobilecode.DefaultSandbox())
	if err != nil {
		b.Fatal(err)
	}
	loader.SetVerifier(verify.LoaderVerifier())
	return mods, loader
}

// BenchmarkMobileCodeDeployment measures the client-side security +
// deployment pipeline (unpack, digest, signature, bytecode verification,
// host table, assemble VM) for each builtin PAD.
func BenchmarkMobileCodeDeployment(b *testing.B) {
	mods, loader := benchLoader(b)
	for _, m := range mods {
		packed, err := m.Pack()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := loader.Load(packed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVaryDecodeHeldCorpus measures a deployed vary-block PAD decoding
// against the whole corpus in rotation: every page is held at its old
// version and receives the differential to the new one. It is the client
// pattern of a device that works through more pages than any small cache
// holds, so each decode re-chunks its held version. One op is one page.
func BenchmarkVaryDecodeHeldCorpus(b *testing.B) {
	benchPADDecode(b, codec.NameVaryBlock, false)
}

// BenchmarkPADDecode is the same rotation through each builtin PAD: the
// client's whole per-reply cost between the frame and the held version.
// Its allocs/op are the floor of the by-reference VM — pad-direct hands
// back the payload itself, so it allocates nothing page-sized.
func BenchmarkPADDecode(b *testing.B) {
	for _, proto := range []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock} {
		b.Run(proto, func(b *testing.B) { benchPADDecode(b, proto, false) })
	}
}

// BenchmarkPADDecodeHeld is BenchmarkPADDecode/varyblock through
// DeployedPAD.DecodeHeld, as the client decodes: each page's held version
// is a codec.Held whose split an untimed decode made, so the timed op
// reuses it where BenchmarkPADDecode re-chunks the held version.
func BenchmarkPADDecodeHeld(b *testing.B) {
	b.Run(codec.NameVaryBlock, func(b *testing.B) { benchPADDecode(b, codec.NameVaryBlock, true) })
}

// benchPADDecode times one DeployedPAD.Decode per op — DecodeHeld against
// a warmed codec.Held when held is set — rotating through the corpus: page
// j is held at its old version and receives proto's payload for the new
// one.
func benchPADDecode(b *testing.B, proto string, held bool) {
	s := getSetup(b)
	olds, curs := benchCorpus(b, s)
	mods, loader := benchLoader(b)
	var pad *mobilecode.DeployedPAD
	for _, m := range mods {
		packed, err := m.Pack()
		if err != nil {
			b.Fatal(err)
		}
		d, err := loader.Load(packed)
		if err != nil {
			b.Fatal(err)
		}
		if d.Name() == proto {
			pad = d
			break
		}
	}
	if pad == nil {
		b.Fatal("no builtin PAD implements " + proto)
	}
	payloads := make([][]byte, len(olds))
	var total int64
	for i := range olds {
		p, err := pad.Encode(olds[i], curs[i])
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = p
		total += int64(len(curs[i]))
	}
	var helds []*codec.Held
	if held {
		for i := range olds {
			helds = append(helds, &codec.Held{Data: olds[i]})
			if _, err := pad.DecodeHeld(helds[i], payloads[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(total / int64(len(olds)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(olds)
		var err error
		if held {
			_, err = pad.DecodeHeld(helds[j], payloads[j])
		} else {
			_, err = pad.Decode(olds[j], payloads[j])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures corpus generation + mutation.
func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg := workload.DefaultConfig(1)
	cfg.Pages = 8
	for i := 0; i < b.N; i++ {
		c, err := workload.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.MutateCorpus(c, workload.DefaultMutation(2)); err != nil {
			b.Fatal(err)
		}
	}
}
