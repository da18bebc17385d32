// Package appserver implements Fractal's application server: it stores
// versioned adaptive content, pre-deploys every PAD (Section 3.1 assumes
// "the application server has already deployed all PADs in advance"),
// measures the per-PAD overhead vectors (Equation 1) on its own corpus,
// pushes AppMeta to the adaptation proxy, publishes PAD modules to the
// CDN origin, and answers APP_REQ with content encoded by the negotiated
// protocol — either reactively (encode per request) or proactively
// (difference precomputed, the Figure 10(d)/11(c) server strategy).
package appserver

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fractal/internal/cdn"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
	"fractal/internal/syncx"
	"fractal/internal/transcode"
	"fractal/internal/workload"
)

// Strategy selects how adaptive content is produced.
type Strategy int

const (
	// Reactive computes each encoding on demand: small memory, CPU per
	// request (the default in Figures 10(a–c)/11(b)).
	Reactive Strategy = iota
	// Proactive precomputes encodings so no server-side computing happens
	// at request time (Figures 10(d)/11(c)).
	Proactive
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Proactive {
		return "proactive"
	}
	return "reactive"
}

// pad couples a deployed communication PAD's module with the
// implementation the server encodes with: the native codec of its protocol
// or, for a protocol without one, the module's own mobile code.
type pad struct {
	module *mobilecode.Module
	impl   codec.Costed
}

// transcoder couples a deployed content-adaptation PAD's module with the
// transcoder the server applies it as.
type transcoder struct {
	module *mobilecode.Module
	tc     transcode.Transcoder
}

// Stats counts server activity.
type Stats struct {
	Requests       int64
	ReactiveEncod  int64
	PrecomputeHits int64
	// ColdFallbacks counts requests claiming a version the server no
	// longer holds; each was answered with a cold encode (Base 0).
	ColdFallbacks int64
}

// serverChunkCacheEntries bounds the server's chunk-index cache. The corpus
// is 75 pages × the two held versions under one chunker configuration; 512
// entries keeps every held version's index resident while an LRU bound
// still protects a server holding far more content.
const serverChunkCacheEntries = 512

// record is one resource as served: the number of its newest version and
// the bytes of the two versions the server holds — the paper's old and
// new page. An install that pushes a version out of this window frees its
// bytes; a client still claiming it gets a cold encode. Under Proactive the
// record also carries the newest version's precomputed encodings. A
// published record is never modified: an install builds a new one and
// swaps it in, so a reader holding one sees versions and encodings that
// match.
type record struct {
	version   int
	cur, prev []byte // prev is nil for version 1
	// store holds the proactive encodings of cur for a client holding
	// nothing, prev, or cur; nil under Reactive.
	store map[storeKey][]byte
}

// storeKey names one proactive encoding of a record's newest version: the
// transcoder ("" = none) and PAD module applied, and the version the
// client holds (0, version-1 or version).
type storeKey struct {
	transcoder, pad string
	have            int
}

// Server is one Fractal application server instance. Server is safe for
// concurrent use: the content state (resource records, PADs, transcoders
// and strategy) is guarded by a single RWMutex, so many sessions may
// encode and negotiate at once. Installs and strategy switches are
// serialised on their own mutex and do their encoding outside the RWMutex,
// on GOMAXPROCS workers that take no server lock, taking it for writing
// only to swap finished records in. The stats are atomic counters outside
// both locks, and the chunk-index cache the vary-sized blocking PAD
// encodes through is internally synchronized.
type Server struct {
	appID  string
	signer *mobilecode.Signer
	chunks *codec.ChunkCache

	// installMu serialises InstallCorpus and SetStrategy, the only writers
	// of resources and strategy.
	installMu sync.Mutex

	mu          sync.RWMutex
	resources   map[string]*record
	pads        map[string]*pad       // communication PADs by id
	transcoders map[string]transcoder // content-adaptation PADs by id
	strategy    Strategy

	requests    atomic.Int64
	reactive    atomic.Int64
	precompHits atomic.Int64
	cold        atomic.Int64
}

// New builds an application server. The signer is the code-signing
// identity whose public key clients must trust.
func New(appID string, signer *mobilecode.Signer) (*Server, error) {
	if appID == "" {
		return nil, fmt.Errorf("appserver: needs an application id")
	}
	if signer == nil {
		return nil, fmt.Errorf("appserver: needs a signing identity")
	}
	return &Server{
		appID:       appID,
		signer:      signer,
		chunks:      codec.NewChunkCache(serverChunkCacheEntries),
		resources:   map[string]*record{},
		pads:        map[string]*pad{},
		transcoders: map[string]transcoder{},
	}, nil
}

// AppID returns the application identifier.
func (s *Server) AppID() string { return s.appID }

// SetStrategy switches between reactive and proactive adaptive content.
// Switching to Proactive precomputes every resource's encodings
// immediately; switching to Reactive drops them.
func (s *Server) SetStrategy(st Strategy) error {
	if st != Reactive && st != Proactive {
		return fmt.Errorf("appserver: unknown strategy %d", st)
	}
	s.installMu.Lock()
	defer s.installMu.Unlock()
	//fractal:allow lockheld installMu serialises installs on purpose; the precompute workers take no server lock
	return s.setStrategyLocked(st)
}

// setStrategyLocked rebuilds every record for strategy st — precomputing
// its encodings under Proactive, one record per worker — and swaps them
// in once all are built; the caller holds s.installMu. A failed precompute
// publishes nothing and returns the error of the lowest resource id.
func (s *Server) setStrategyLocked(st Strategy) error {
	s.mu.RLock()
	ids := sortedIDs(s.resources)
	next := make(map[string]*record, len(ids))
	for _, id := range ids {
		rec := s.resources[id]
		next[id] = &record{version: rec.version, cur: rec.cur, prev: rec.prev}
	}
	enc := s.encodersLocked()
	s.mu.RUnlock()
	if st == Proactive {
		err := syncx.Each(len(ids), func(i int) error {
			return enc.precompute(ids[i], next[ids[i]])
		})
		if err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.resources = next
	s.strategy = st
	s.mu.Unlock()
	return nil
}

// Strategy returns the current content strategy.
func (s *Server) Strategy() Strategy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.strategy
}

// InstallCorpus loads version chains built from a workload corpus: each
// page contributes its serialized versions in order. Calling it again
// adds further versions (a content update on a live server); each
// resource keeps only its newest two. Only the resources the update
// touches are rebuilt — under Proactive, with their precomputed encodings,
// one record per worker — outside the read lock, and each is published
// with one swap once every record is built, so requests are never served
// a version without its encodings. A failed precompute publishes nothing
// and returns the error of the first failing resource in corpus order.
func (s *Server) InstallCorpus(versions ...*workload.Corpus) error {
	if len(versions) == 0 {
		return fmt.Errorf("appserver: no corpus versions to install")
	}
	s.installMu.Lock()
	defer s.installMu.Unlock()
	type pending struct {
		base int // version held before this batch
		rec  record
	}
	work := map[string]*pending{}
	var order []string
	s.mu.RLock()
	for vi, c := range versions {
		for _, p := range c.Pages {
			w, seen := work[p.ID]
			if !seen {
				w = &pending{}
				if old := s.resources[p.ID]; old != nil {
					w.rec = record{version: old.version, cur: old.cur, prev: old.prev}
				}
				w.base = w.rec.version
				work[p.ID] = w
				order = append(order, p.ID)
			}
			if w.rec.version != w.base+vi {
				s.mu.RUnlock()
				return fmt.Errorf("appserver: resource %s has %d versions installing update %d of this batch (base %d)", p.ID, w.rec.version, vi+1, w.base)
			}
			w.rec.prev, w.rec.cur = w.rec.cur, p.Bytes()
			w.rec.version++
		}
	}
	proactive := s.strategy == Proactive
	enc := s.encodersLocked()
	s.mu.RUnlock()
	if proactive {
		//fractal:allow lockheld installMu serialises installs on purpose; the precompute workers take no server lock
		err := syncx.Each(len(order), func(i int) error {
			return enc.precompute(order[i], &work[order[i]].rec)
		})
		if err != nil {
			return err
		}
	}
	for _, id := range order {
		s.mu.Lock()
		s.resources[id] = &work[id].rec
		s.mu.Unlock()
	}
	return nil
}

// Resources returns the number of installed resources.
func (s *Server) Resources() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.resources)
}

// Current returns a resource's newest version data and number.
func (s *Server) Current(resource string) ([]byte, int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.resources[resource]
	if !ok {
		return nil, 0, fmt.Errorf("appserver: no resource %q", resource)
	}
	return rec.cur, rec.version, nil
}

// DeployPADs builds, signs, verifies and installs the case-study PAD set
// at the given module version.
func (s *Server) DeployPADs(moduleVersion string) error {
	return s.addPADs(moduleVersion, mobilecode.BuiltinSpecs()...)
}

// addPADs is the one registration path of communication PADs: each spec's
// module is built and verified, its serving implementation resolved, and
// the set registered unless one of its ids is already deployed.
func (s *Server) addPADs(moduleVersion string, specs ...mobilecode.BuiltinSpec) error {
	built := make([]*pad, 0, len(specs))
	for _, spec := range specs {
		m, err := s.build(spec, moduleVersion)
		if err != nil {
			return err
		}
		impl, err := s.implFor(spec, m)
		if err != nil {
			return err
		}
		built = append(built, &pad{module: m, impl: impl})
	}
	return s.register(func() error {
		for _, p := range built {
			if _, dup := s.pads[p.module.ID]; dup {
				return fmt.Errorf("appserver: PAD %s already deployed", p.module.ID)
			}
		}
		for _, p := range built {
			s.pads[p.module.ID] = p
		}
		return nil
	})
}

// build builds and signs one spec's module and verifies it statically: a
// module the server cannot prove safe is never published, measured, or
// pushed to the proxy — the same gate clients apply on deployment.
func (s *Server) build(spec mobilecode.BuiltinSpec, moduleVersion string) (*mobilecode.Module, error) {
	m, err := mobilecode.BuildModule(spec, moduleVersion, s.signer)
	if err != nil {
		return nil, fmt.Errorf("appserver: building %s: %w", spec.ID, err)
	}
	if _, err := verify.Module(m, mobilecode.DefaultSandbox()); err != nil {
		return nil, fmt.Errorf("appserver: %s: %w", spec.ID, err)
	}
	return m, nil
}

// register adds built modules to the PAD tables through add, which runs
// under the write lock. A Proactive server then rebuilds its store, as
// SetStrategy does, so the new PADs are served precomputed like the rest.
func (s *Server) register(add func() error) error {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	s.mu.Lock()
	err := add()
	proactive := s.strategy == Proactive
	s.mu.Unlock()
	if err != nil || !proactive {
		return err
	}
	//fractal:allow lockheld installMu serialises installs on purpose; the precompute workers take no server lock
	return s.setStrategyLocked(Proactive)
}

// implFor resolves a spec's serving implementation: codec.New's native
// codec when one exists, otherwise the server deploys the module's own
// mobile code in a sandbox and runs it natively — pure VM compositions
// like CascadeSpec need no Go implementation at all.
func (s *Server) implFor(spec mobilecode.BuiltinSpec, m *mobilecode.Module) (codec.Costed, error) {
	if impl, err := codec.New(spec.Protocol); err == nil {
		// Vary-sized blocking — the one ChunkCacheUser — encodes through the
		// server-wide chunk-index cache: each installed version is chunked
		// and digested once, not once per request or per precompute pass.
		if cu, ok := impl.(codec.ChunkCacheUser); ok {
			cu.UseChunkCache(s.chunks)
		}
		return impl, nil
	}
	trust := mobilecode.NewTrustList()
	if err := trust.Add(s.signer.Entity, s.signer.PublicKey()); err != nil {
		return nil, fmt.Errorf("appserver: self-trust for %s: %w", spec.ID, err)
	}
	loader, err := mobilecode.NewLoader(trust, mobilecode.DefaultSandbox())
	if err != nil {
		return nil, err
	}
	loader.SetVerifier(verify.LoaderVerifier())
	packed, err := m.Pack()
	if err != nil {
		return nil, err
	}
	deployed, err := loader.Load(packed)
	if err != nil {
		return nil, fmt.Errorf("appserver: deploying VM impl for %s: %w", spec.ID, err)
	}
	return vmPad{DeployedPAD: deployed, cost: spec.Cost}, nil
}

// vmPad serves a protocol through its own mobile code with a spec-supplied
// cost model.
type vmPad struct {
	*mobilecode.DeployedPAD
	cost codec.CostModel
}

// Cost implements codec.Costed.
func (v vmPad) Cost() codec.CostModel { return v.cost }

// ChunkCacheStats reports the counters of the chunk-index cache. Only
// vary-sized blocking encodes look versions up in it, so a server whose
// clients negotiated other protocols reads no lookups at request time.
func (s *Server) ChunkCacheStats() codec.ChunkCacheStats {
	return s.chunks.Stats()
}

// PADIDs returns the deployed communication PAD ids.
func (s *Server) PADIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedIDs(s.pads)
}

// MeasureAppMeta pre-tests every deployed communication PAD against up to
// samplePages of the installed corpus (latest version against its
// predecessor), producing the AppMeta to push to the adaptation proxy.
func (s *Server) MeasureAppMeta(samplePages int) (core.AppMeta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.pads) == 0 {
		return core.AppMeta{}, fmt.Errorf("appserver: no PADs deployed")
	}
	pairs, _, err := s.samplePairsLocked(samplePages)
	if err != nil {
		return core.AppMeta{}, err
	}
	app := core.AppMeta{AppID: s.appID}
	for _, id := range sortedIDs(s.pads) {
		meta, err := pretest(s.pads[id], nil, pairs, s.strategy)
		if err != nil {
			return core.AppMeta{}, err
		}
		app.PADs = append(app.PADs, meta)
	}
	return app, nil
}

// pretest is Equation 1, the one pre-test every PADMeta's overhead vector
// comes from: p encodes each sample pair, transcoded first by tc unless tc
// is nil; the means over the pairs give the traffic and upstream bytes,
// and p's CostModel the compute times at the mean content size, the
// server's zero under Proactive (see padMeta).
func pretest(p *pad, tc transcode.Transcoder, pairs []measurePair, st Strategy) (core.PADMeta, error) {
	var traffic, upstream, content int64
	for _, pr := range pairs {
		old, err := transform(tc, pr.old)
		if err != nil {
			return core.PADMeta{}, err
		}
		cur, err := transform(tc, pr.cur)
		if err != nil {
			return core.PADMeta{}, err
		}
		payload, err := p.impl.Encode(old, cur)
		if err != nil {
			return core.PADMeta{}, fmt.Errorf("appserver: measuring %s: %w", p.module.ID, err)
		}
		traffic += int64(len(payload))
		content += int64(len(cur))
		if uc, ok := p.impl.(codec.UpstreamCoster); ok {
			upstream += uc.UpstreamBytes(old)
		}
	}
	n := int64(len(pairs))
	meta := padMeta(p.module, p.impl.Name(), p.impl.Cost(), content/n, st)
	meta.Overhead.TrafficBytes = traffic / n
	meta.Overhead.UpstreamBytes = upstream / n
	return meta, nil
}

// padMeta describes module m, served as protocol, with cost's compute
// times at the given content size; the URL is the CDN publishing path.
// Under Proactive the server computes nothing at request time, so the
// server-side term is zero and the topology carries the strategy to the
// proxy's Eq. 3.
func padMeta(m *mobilecode.Module, protocol string, cost codec.CostModel, content int64, st Strategy) core.PADMeta {
	meta := core.PADMeta{
		ID:       m.ID,
		Version:  m.Version,
		Protocol: protocol,
		Size:     m.Size(),
		Digest:   m.Digest,
		URL:      "/pads/" + m.ID,
		Overhead: core.PADOverhead{
			ServerCompStd: cost.ServerTime(content),
			ClientCompStd: cost.ClientTime(content),
		},
	}
	if st == Proactive {
		meta.Overhead.ServerCompStd = 0
	}
	return meta
}

// measurePair is one (old, cur) measurement sample.
type measurePair struct{ old, cur []byte }

// samplePairsLocked collects up to samplePages (old, cur) measurement
// pairs, in resource id order, and their mean content size; the caller
// holds s.mu (read).
func (s *Server) samplePairsLocked(samplePages int) ([]measurePair, int64, error) {
	if samplePages < 1 {
		return nil, 0, fmt.Errorf("appserver: need >= 1 sample page, got %d", samplePages)
	}
	var pairs []measurePair
	var content int64
	for _, id := range sortedIDs(s.resources) {
		if len(pairs) >= samplePages {
			break
		}
		rec := s.resources[id]
		pairs = append(pairs, measurePair{old: rec.prev, cur: rec.cur})
		content += int64(len(rec.cur))
	}
	if len(pairs) == 0 {
		return nil, 0, fmt.Errorf("appserver: no content installed to measure against")
	}
	return pairs, content / int64(len(pairs)), nil
}

// sortedIDs returns a table's keys in order.
func sortedIDs[V any](table map[string]V) []string {
	ids := make([]string, 0, len(table))
	for id := range table {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// PublishPADs uploads every deployed PAD module, transcoders included, to
// the CDN origin under its metadata URL.
func (s *Server) PublishPADs(origin *cdn.Origin) error {
	if origin == nil {
		return fmt.Errorf("appserver: nil CDN origin")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	modules := make([]*mobilecode.Module, 0, len(s.pads)+len(s.transcoders))
	for _, p := range s.pads {
		modules = append(modules, p.module)
	}
	for _, t := range s.transcoders {
		modules = append(modules, t.module)
	}
	for _, m := range modules {
		packed, err := m.Pack()
		if err != nil {
			return fmt.Errorf("appserver: packing %s: %w", m.ID, err)
		}
		if err := origin.Publish("/pads/"+m.ID, packed); err != nil {
			return fmt.Errorf("appserver: publishing %s: %w", m.ID, err)
		}
	}
	return nil
}

// TrustedKey returns the signing identity's public key for client trust
// lists.
func (s *Server) TrustedKey() (string, []byte) {
	return s.signer.Entity, s.signer.PublicKey()
}

// encoders is what a precompute pass encodes with: the communication
// PADs and the transcoders, "" standing for none, as they were when the
// pass began.
type encoders struct {
	pads map[string]*pad
	tcs  map[string]transcode.Transcoder
}

// encodersLocked snapshots the encoders; the caller holds s.mu.
func (s *Server) encodersLocked() encoders {
	e := encoders{pads: maps.Clone(s.pads), tcs: map[string]transcode.Transcoder{"": nil}}
	for id, t := range s.transcoders {
		e.tcs[id] = t.tc
	}
	return e
}

// precompute fills an unpublished record's proactive store: for every
// (transcoder, PAD) pair, the newest version encoded for a client holding
// nothing, the previous version, or the newest one.
func (e encoders) precompute(res string, rec *record) error {
	haves := []int{0, rec.version}
	if rec.version > 1 {
		haves = append(haves, rec.version-1)
	}
	rec.store = map[storeKey][]byte{}
	for tcID, tc := range e.tcs {
		cur, err := transform(tc, rec.cur)
		if err != nil {
			return err
		}
		prev, err := transform(tc, rec.prev)
		if err != nil {
			return err
		}
		for id, p := range e.pads {
			// A base-independent protocol is encoded once and the one
			// payload stored under every have.
			_, once := p.impl.(codec.BaseIndependent)
			var payload []byte
			for _, have := range haves {
				if !once || have == 0 {
					old := cur
					switch have {
					case 0:
						old = nil
					case rec.version - 1:
						old = prev
					}
					if payload, err = p.impl.Encode(old, cur); err != nil {
						return fmt.Errorf("appserver: precomputing %s/%s/%s@%d: %w", tcID, id, res, have, err)
					}
				}
				rec.store[storeKey{tcID, id, have}] = payload
			}
		}
	}
	return nil
}

// transform applies transcoder tc to content. A nil tc — what the
// transcoder table holds for the id "" — is the identity, and nil content,
// a version not held, stays nil.
func transform(tc transcode.Transcoder, content []byte) ([]byte, error) {
	if tc == nil || content == nil {
		return content, nil
	}
	out, err := tc.Transform(content)
	if err != nil {
		return nil, fmt.Errorf("appserver: transcoding to %s: %w", tc.Name(), err)
	}
	return out, nil
}

// EncodeResult is the outcome of serving one request.
type EncodeResult struct {
	Payload []byte
	Version int
	// Base is the version Payload was encoded against: the claimed
	// version when the server still holds it, 0 for a cold encode.
	Base        int
	PADID       string
	Precomputed bool
}

// Encode serves a resource for a client that negotiated the given PAD
// path and holds haveVersion (0 = nothing). The path may contain one
// content-adaptation PAD (applied to the content first) and must contain
// one communication-optimization PAD. Context-specific metadata ids of the
// form "<module-id>@<context>" resolve to their module. A claimed version
// the server no longer holds is answered with a cold encode: Base says
// which one the payload needs.
func (s *Server) Encode(padIDs []string, resource string, haveVersion int) (EncodeResult, error) {
	s.requests.Add(1)
	r, err := s.resolve(padIDs, resource, haveVersion)
	if err != nil {
		return EncodeResult{}, err
	}
	if r.precomputed {
		s.precompHits.Add(1)
		return EncodeResult{Payload: r.payload, Version: r.curV, Base: r.base, PADID: r.padID, Precomputed: true}, nil
	}
	cur, err := transform(r.tc, r.cur)
	if err != nil {
		return EncodeResult{}, err
	}
	// haveVersion may equal the current version (client already current):
	// old is then the current content itself, and differencing protocols
	// collapse the payload to nearly nothing.
	old, err := transform(r.tc, r.old)
	if err != nil {
		return EncodeResult{}, err
	}
	payload, err := r.pad.impl.Encode(old, cur)
	if err != nil {
		return EncodeResult{}, fmt.Errorf("appserver: encoding %s with %s: %w", resource, r.padID, err)
	}
	s.reactive.Add(1)
	return EncodeResult{Payload: payload, Version: r.curV, Base: r.base, PADID: r.padID}, nil
}

// FetchContent answers one APP_REQ in process with the reply an INP
// session would carry, Base included. It is the one content path: the INP
// front end, peer-to-peer sessions and in-process clients all call it,
// and it makes *Server a client.ContentFetcher.
func (s *Server) FetchContent(req inp.AppReq) (inp.AppRep, error) {
	if req.AppID != s.appID {
		return inp.AppRep{}, fmt.Errorf("appserver: unknown application %q", req.AppID)
	}
	res, err := s.Encode(req.ProtocolIDs, req.Resource, req.HaveVersion)
	if err != nil {
		return inp.AppRep{}, err
	}
	return inp.AppRep{
		Resource: req.Resource,
		Version:  res.Version,
		Base:     res.Base,
		PADID:    res.PADID,
		Payload:  res.Payload,
	}, nil
}

// resolved is everything one reply is built from.
type resolved struct {
	pad         *pad
	padID       string               // as negotiated, context suffix included
	tc          transcode.Transcoder // nil = the path names none
	tcID        string
	old, cur    []byte // old is nil for a cold encode
	curV, base  int    // base is the version old holds, 0 for none
	payload     []byte // the proactive encoding, when precomputed
	precomputed bool
}

// resolve reads everything a reply depends on — PAD choice, transcoder,
// both versions, the current version number and, under Proactive, the
// precomputed payload — in one critical section, the content from one
// record. An InstallCorpus landing between separate reads could otherwise
// pair the newer version's payload with the older version's number, and
// the client would commit bytes under a version it does not hold.
func (s *Server) resolve(padIDs []string, resource string, haveVersion int) (resolved, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var r resolved
	for _, id := range padIDs {
		if t, ok := s.transcoders[id]; ok {
			if r.tcID != "" && r.tcID != id {
				return r, fmt.Errorf("appserver: path names two transcoders (%s, %s)", r.tcID, id)
			}
			r.tc, r.tcID = t.tc, id
			continue
		}
		if r.pad != nil {
			continue
		}
		if p, ok := s.pads[moduleOf(id)]; ok {
			r.pad, r.padID = p, id
		}
	}
	if r.pad == nil {
		return r, fmt.Errorf("appserver: none of the negotiated PADs %v is deployed", padIDs)
	}
	rec := s.resources[resource]
	if rec == nil {
		return r, fmt.Errorf("appserver: no resource %q", resource)
	}
	r.curV, r.cur = rec.version, rec.cur
	if haveVersion < 0 || haveVersion > r.curV {
		return r, fmt.Errorf("appserver: client claims version %d of %s, newest is %d", haveVersion, resource, r.curV)
	}
	switch haveVersion {
	case 0:
	case r.curV:
		r.old, r.base = rec.cur, haveVersion
	case r.curV - 1:
		r.old, r.base = rec.prev, haveVersion
	default:
		s.cold.Add(1)
	}
	if s.strategy == Proactive {
		r.payload, r.precomputed = rec.store[storeKey{r.tcID, moduleOf(r.padID), r.base}]
	}
	return r, nil
}

// moduleOf strips a context suffix from a metadata PAD id.
func moduleOf(metaID string) string {
	if i := strings.IndexByte(metaID, '@'); i >= 0 {
		return metaID[:i]
	}
	return metaID
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:       s.requests.Load(),
		ReactiveEncod:  s.reactive.Load(),
		PrecomputeHits: s.precompHits.Load(),
		ColdFallbacks:  s.cold.Load(),
	}
}
