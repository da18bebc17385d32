package main

import (
	"fmt"
	"sort"
	"time"

	"fractal/internal/arena"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
	"fractal/internal/netsim"
)

// replayed holds the layer-replay results: after the traced pass, each
// layer's public function is called directly, without sockets, on inputs
// of the kind the pass used, and timed. A layer the pass never reached is
// not replayed and reports zero.
type replayed struct {
	metrics map[string]float64
	// leafUs is the mean time per op the replayed functions and the dial
	// spans account for; what is left of the op is unattributed (kernel,
	// loopback, goroutine wake-ups, client bookkeeping).
	leafUs float64
}

// replayBatches is how many batches a replayed function is timed in; the
// median batch is reported, so a GC cycle or a host hiccup moves one batch,
// not the result.
const replayBatches = 5

// meanUs times fn: once to warm and to size the batches, then in
// replayBatches batches that together take about budget. It returns the
// median batch's mean µs per call.
func meanUs(budget time.Duration, fn func() error) (float64, error) {
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	reps := 1
	if one := time.Since(t0); one > 0 {
		reps = min(max(int(budget/replayBatches/one), 1), 1000)
	}
	batches := make([]float64, replayBatches)
	for b := range batches {
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(reps) / 1e3
	}
	sort.Float64s(batches)
	return median(batches), nil
}

// figure4 passes the five negotiation messages between two INP endpoints.
func figure4(cli, srv *inp.Conn, env core.Env, pads []core.PADMeta) error {
	if err := cli.Queue(inp.MsgInitReq, inp.InitReq{AppID: appID, WireVersion: inp.Version2}); err != nil {
		return err
	}
	if err := cli.Queue(inp.MsgCliMetaRep, inp.CliMetaRep{Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: sessionRequests}); err != nil {
		return err
	}
	if err := cli.Flush(); err != nil {
		return err
	}
	var initReq inp.InitReq
	if err := srv.RecvInto(inp.MsgInitReq, &initReq); err != nil {
		return err
	}
	srv.EnableBinary()
	var meta inp.CliMetaRep
	if err := srv.RecvInto(inp.MsgCliMetaRep, &meta); err != nil {
		return err
	}
	if err := srv.Queue(inp.MsgInitRep, inp.InitRep{OK: true}); err != nil {
		return err
	}
	if err := srv.Queue(inp.MsgCliMetaReq, inp.CliMetaReq{}); err != nil {
		return err
	}
	if err := srv.Queue(inp.MsgPADMetaRep, inp.PADMetaRep{PADs: pads}); err != nil {
		return err
	}
	if err := srv.Flush(); err != nil {
		return err
	}
	var initRep inp.InitRep
	if err := cli.RecvInto(inp.MsgInitRep, &initRep); err != nil {
		return err
	}
	var tmpl inp.CliMetaReq
	if err := cli.RecvInto(inp.MsgCliMetaReq, &tmpl); err != nil {
		return err
	}
	var rep inp.PADMetaRep
	return cli.RecvInto(inp.MsgPADMetaRep, &rep)
}

// inpPair is a client and a server INP endpoint over an in-memory stream,
// the server buffered from an arena session as the daemons' are.
func inpPair() (cli, srv *inp.Conn, release func()) {
	a, z := netsim.StreamPair()
	sess := arena.AcquireSession()
	return inp.NewConn(a), inp.NewConnSession(z, sess), func() {
		a.Close()
		z.Close()
		sess.Release()
	}
}

// replay times the layers the traced pass reached. sum is the span summary
// of that pass, tops its op count.
func (b *bench) replay(td *driver, tc tapped, sum map[string]spanStat, tops int64, hitRatio float64, budget time.Duration) (*replayed, error) {
	rp := &replayed{metrics: map[string]float64{}}
	m := rp.metrics
	perOp := func(calls int64) float64 { return ratio(calls, tops) }
	rp.leafUs += sum[spDial].meanUs() * perOp(sum[spDial].calls)

	if n := tc.proxy.services; n > 0 {
		if err := b.replayNegotiation(m, budget); err != nil {
			return nil, err
		}
		framing := m["inp.negotiate_json_us"]
		if b.def.name == "negotiate-persistent" {
			framing, m["inp.negotiate_json_us"] = m["inp.negotiate_binary_us"], 0
		} else {
			m["inp.negotiate_binary_us"] = 0
		}
		search := hitRatio*m["proxy.negotiate_hit_us"] + (1-hitRatio)*m["proxy.negotiate_miss_us"]
		rp.leafUs += (framing + search) * perOp(n)
	}
	if n := tc.edge.services; n > 0 {
		if err := b.replayDeploy(m, budget); err != nil {
			return nil, err
		}
		rp.leafUs += (m["cdn.origin_get_us"] + m["mobilecode.load_us"]) * perOp(n)
	}
	if n := tc.app.services; n > 0 {
		leaf, err := b.replayContent(m, td, sum, budget)
		if err != nil {
			return nil, err
		}
		rp.leafUs += leaf * perOp(n)
	}
	return rp, nil
}

// replayNegotiation times the negotiation plane: INP framing of one Figure 4
// exchange in both encodings, the proxy's Negotiate on a warm and on a
// never-seen key, and the bare path search.
func (b *bench) replayNegotiation(m map[string]float64, budget time.Duration) error {
	env := b.envs[0]
	pads, err := b.pf.px.Negotiate(appID, env, sessionRequests)
	if err != nil {
		return err
	}
	// First contact: a fresh pair every time, so the client's frames are
	// JSON and the server answers in binary, as on a new connection.
	if m["inp.negotiate_json_us"], err = meanUs(budget, func() error {
		cli, srv, release := inpPair()
		defer release()
		return figure4(cli, srv, env, pads)
	}); err != nil {
		return err
	}
	cli, srv, release := inpPair()
	defer release()
	if m["inp.negotiate_binary_us"], err = meanUs(budget, func() error {
		return figure4(cli, srv, env, pads)
	}); err != nil {
		return err
	}
	if m["proxy.negotiate_hit_us"], err = meanUs(budget, func() error {
		_, err := b.pf.px.Negotiate(appID, env, sessionRequests)
		return err
	}); err != nil {
		return err
	}
	fresh := env
	fresh.Dev.CPUMHz += 1e6
	if m["proxy.negotiate_miss_us"], err = meanUs(budget, func() error {
		fresh.Dev.CPUMHz++
		_, err := b.pf.px.Negotiate(appID, fresh, sessionRequests)
		return err
	}); err != nil {
		return err
	}
	i := 0
	m["core.find_path_us"], err = meanUs(budget, func() error {
		i++
		_, err := core.FindPath(b.pf.pat, b.pf.model, b.envs[i%len(b.envs)])
		return err
	})
	return err
}

// replayDeploy times what one PAD download costs past the wire: the store
// lookup at the edge and the client's deployment pipeline, whole and by
// step, averaged over the modules the three stations deploy.
func (b *bench) replayDeploy(m map[string]float64, budget time.Duration) error {
	loader, err := b.newLoader()
	if err != nil {
		return err
	}
	protos := stationProtocols(b.def.proactive)
	for _, proto := range protos {
		meta, err := b.padFor(proto)
		if err != nil {
			return err
		}
		packed, err := b.pf.origin.Get(meta.URL)
		if err != nil {
			return err
		}
		mod, err := mobilecode.Unpack(packed)
		if err != nil {
			return err
		}
		steps := []struct {
			name string
			fn   func() error
		}{
			{"cdn.origin_get_us", func() error { _, err := b.pf.origin.Get(meta.URL); return err }},
			{"mobilecode.load_us", func() error { _, err := loader.Load(packed); return err }},
			{"mobilecode.unpack_us", func() error { _, err := mobilecode.Unpack(packed); return err }},
			{"mobilecode.signature_us", func() error {
				return b.pf.trust.Verify(mod.Entity, mod.ID, mod.Version, mod.Digest, mod.Sig)
			}},
			{"mobilecode.bytecode_verify_us", func() error {
				_, err := verify.Packed(packed, mobilecode.DefaultSandbox())
				return err
			}},
		}
		for _, s := range steps {
			us, err := meanUs(budget, s.fn)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", s.name, proto, err)
			}
			m[s.name] += us / float64(len(protos))
		}
	}
	return nil
}

// newLoader builds the deployment pipeline client.New builds: digest,
// signature, then the static bytecode verifier.
func (b *bench) newLoader() (*mobilecode.Loader, error) {
	loader, err := mobilecode.NewLoader(b.pf.trust, mobilecode.DefaultSandbox())
	if err != nil {
		return nil, err
	}
	loader.SetVerifier(verify.LoaderVerifier())
	return loader, nil
}

func (b *bench) padFor(proto string) (core.PADMeta, error) {
	for _, p := range b.pf.appMeta.PADs {
		if p.Protocol == proto {
			return p, nil
		}
	}
	return core.PADMeta{}, fmt.Errorf("no PAD for protocol %q", proto)
}

// contentCell is the replayed cost of one request of one protocol and class.
type contentCell struct {
	serverEncodeUs, nativeEncodeUs, nativeDecodeUs, vmDecodeUs, frameUs float64
}

// replayContent times the data plane for every protocol and request class
// on real corpus pairs (the previous and the current version of a few
// pages): the server's Encode, the native codec both ways, the deployed
// PAD's VM decode on the same bytes, and one APP_REQ/APP_REP frame pair at
// the payload's size. It returns the mean leaf time per request of the
// traced pass's own mix.
func (b *bench) replayContent(m map[string]float64, td *driver, sum map[string]spanStat, budget time.Duration) (float64, error) {
	loader, err := b.newLoader()
	if err != nil {
		return 0, err
	}
	var cells [numClasses]map[string]contentCell
	for c := range cells {
		cells[c] = map[string]contentCell{}
	}
	pages := min(b.sizes.replayPages, len(b.pages))
	for _, proto := range protocols {
		meta, err := b.padFor(proto)
		if err != nil {
			return 0, err
		}
		packed, err := b.pf.origin.Get(meta.URL)
		if err != nil {
			return 0, err
		}
		pad, err := loader.Load(packed)
		if err != nil {
			return 0, err
		}
		native, err := codec.New(proto)
		if err != nil {
			return 0, err
		}
		// The deployed PAD's host table keeps a chunk-index cache; give the
		// native codec one too, so the two decode the same bytes equally warm.
		if cu, ok := codec.Codec(native).(codec.ChunkCacheUser); ok {
			cu.UseChunkCache(codec.NewChunkCache(codec.DefaultChunkCacheEntries))
		}
		for pi := 0; pi < pages; pi++ {
			page := b.pages[pi]
			cur, curV, err := b.pf.app.Current(page)
			if err != nil {
				return 0, err
			}
			for c := reqClass(0); c < numClasses; c++ {
				var old []byte
				have := 0
				switch c {
				case classDiff:
					old, have = b.pf.prev[pi].Bytes(), curV-1
				case classCurrent:
					old, have = cur, curV
				}
				var payload []byte
				cell := cells[c][proto]
				add := func(dst *float64, fn func() error) error {
					us, err := meanUs(budget, fn)
					*dst += us / float64(pages)
					return err
				}
				ids := []string{meta.ID}
				if err := add(&cell.serverEncodeUs, func() error {
					_, err := b.pf.app.Encode(ids, page, have)
					return err
				}); err != nil {
					return 0, err
				}
				if err := add(&cell.nativeEncodeUs, func() error {
					payload, err = native.Encode(old, cur)
					return err
				}); err != nil {
					return 0, err
				}
				if err := add(&cell.nativeDecodeUs, func() error {
					_, err := native.Decode(old, payload)
					return err
				}); err != nil {
					return 0, err
				}
				if err := add(&cell.vmDecodeUs, func() error {
					_, err := pad.Decode(old, payload)
					return err
				}); err != nil {
					return 0, fmt.Errorf("VM decode of %s %s: %w", proto, classNames[c], err)
				}
				cli, srv, release := inpPair()
				req := inp.AppReq{AppID: appID, Resource: page, ProtocolIDs: ids, HaveVersion: have, WireVersion: inp.Version2}
				rep := inp.AppRep{Resource: page, Version: curV, PADID: meta.ID, Payload: payload}
				srv.EnableBinary()
				err = add(&cell.frameUs, func() error {
					var gotReq inp.AppReq
					var gotRep inp.AppRep
					if err := cli.Send(inp.MsgAppReq, &req); err != nil {
						return err
					}
					if err := srv.RecvInto(inp.MsgAppReq, &gotReq); err != nil {
						return err
					}
					if err := srv.Send(inp.MsgAppRep, &rep); err != nil {
						return err
					}
					return cli.RecvInto(inp.MsgAppRep, &gotRep)
				})
				release()
				if err != nil {
					return 0, err
				}
				cells[c][proto] = cell
			}
		}
	}

	// Weights: the traced pass's own request mix.
	var class [numClasses]float64
	var total int64
	for _, wc := range td.class {
		for c, n := range wc {
			class[c] += float64(n)
			total += n
		}
	}
	if total == 0 {
		return 0, nil
	}
	for c := range class {
		class[c] /= float64(total)
	}
	var leaf, frame float64
	reqs := sum[spRequest].calls
	for _, proto := range protocols {
		share := ratio(sum[spRequest+"."+proto].calls, reqs)
		var enc, dec, vm float64
		for c := range class {
			cell := cells[c][proto]
			enc += class[c] * cell.nativeEncodeUs
			dec += class[c] * cell.nativeDecodeUs
			vm += class[c] * cell.vmDecodeUs
			leaf += share * class[c] * (cell.serverEncodeUs + cell.vmDecodeUs + cell.frameUs)
			frame += share * class[c] * cell.frameUs
		}
		m["codec.encode_us."+proto] = enc
		m["codec.decode_us."+proto] = dec
		m["mobilecode.vm_decode_us."+proto] = vm
		if dec > 0 {
			m["mobilecode.vm_overhead_frac."+proto] = vm/dec - 1
		}
	}
	m["inp.app_frame_us"] = frame
	used := stationProtocols(b.def.proactive)
	for c := range class {
		var us float64
		for _, proto := range used {
			us += cells[c][proto].serverEncodeUs / float64(len(used))
		}
		m["appserver.encode_us."+classNames[c]] = us
	}
	return leaf, nil
}
