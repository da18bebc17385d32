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
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fractal/internal/cdn"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
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

// pad couples a deployed PAD module with its native protocol
// implementation (the server always runs native code; mobile code is for
// clients).
type pad struct {
	module *mobilecode.Module
	impl   codec.Costed
	meta   core.PADMeta
}

// Stats counts server activity.
type Stats struct {
	Requests       int64
	ReactiveEncod  int64
	PrecomputeHits int64
}

// serverChunkCacheEntries bounds the server's chunk-index cache. The corpus
// is 75 pages × a few versions under one chunker configuration; 512 entries
// keeps every live version's index resident while an LRU bound still
// protects a server holding far more content.
const serverChunkCacheEntries = 512

// Server is one Fractal application server instance. Server is safe for
// concurrent use: all mutable state (resources, PADs, transcoders, the
// encode cache, and stats) is guarded by a single RWMutex, so many
// sessions may encode and negotiate at once. The chunk-index cache the
// vary-sized blocking PAD encodes through is internally synchronized.
type Server struct {
	appID  string
	signer *mobilecode.Signer
	chunks *codec.ChunkCache

	mu          sync.RWMutex
	resources   map[string][][]byte             // resource -> versions (index 0 = v1)
	pads        map[string]*pad                 // by PAD id
	protoPAD    map[string]string               // protocol name -> PAD id
	transcoders map[string]transcode.Transcoder // content-adaptation PADs by id
	strategy    Strategy
	// precomputed holds the proactive encodings. It is rebuilt under the
	// same write lock that changes resources or strategy, so whenever a
	// reader sees Proactive the store matches the version chains.
	precomputed map[precompKey][]byte

	requests    atomic.Int64
	reactive    atomic.Int64
	precompHits atomic.Int64
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
		resources:   map[string][][]byte{},
		pads:        map[string]*pad{},
		protoPAD:    map[string]string{},
		transcoders: map[string]transcode.Transcoder{},
		precomputed: map[precompKey][]byte{},
	}, nil
}

// AppID returns the application identifier.
func (s *Server) AppID() string { return s.appID }

// SetStrategy switches between reactive and proactive adaptive content.
// Switching to Proactive precomputes every (PAD, resource, version-1)
// encoding immediately.
func (s *Server) SetStrategy(st Strategy) error {
	if st != Reactive && st != Proactive {
		return fmt.Errorf("appserver: unknown strategy %d", st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.strategy = st
	if st == Proactive {
		return s.precomputeAllLocked()
	}
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
// appends further versions to the existing chains (a content update on a
// live server); with the proactive strategy active, the precomputed store
// is rebuilt so no stale encodings survive the update.
func (s *Server) InstallCorpus(versions ...*workload.Corpus) error {
	if len(versions) == 0 {
		return fmt.Errorf("appserver: no corpus versions to install")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := map[string]int{}
	for vi, c := range versions {
		for _, p := range c.Pages {
			b, seen := base[p.ID]
			if !seen {
				b = len(s.resources[p.ID])
				base[p.ID] = b
			}
			chain := s.resources[p.ID]
			if len(chain) != b+vi {
				return fmt.Errorf("appserver: resource %s has %d versions installing update %d of this batch (base %d)", p.ID, len(chain), vi+1, b)
			}
			s.resources[p.ID] = append(chain, p.Bytes())
		}
	}
	if s.strategy == Proactive {
		return s.precomputeAllLocked()
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
	chain, ok := s.resources[resource]
	if !ok || len(chain) == 0 {
		return nil, 0, fmt.Errorf("appserver: no resource %q", resource)
	}
	return chain[len(chain)-1], len(chain), nil
}

// DeployPADs builds, signs, and installs the case-study PAD set at the
// given module version.
func (s *Server) DeployPADs(moduleVersion string) error {
	specs := mobilecode.BuiltinSpecs()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, spec := range specs {
		m, err := mobilecode.BuildModule(spec, moduleVersion, s.signer)
		if err != nil {
			return fmt.Errorf("appserver: building %s: %w", spec.ID, err)
		}
		// Static verification before registration: a module the server
		// cannot prove safe is never published, measured, or pushed to the
		// proxy — the same gate clients apply on deployment.
		if _, err := verify.Module(m, mobilecode.DefaultSandbox()); err != nil {
			return fmt.Errorf("appserver: %s: %w", spec.ID, err)
		}
		impl, err := codec.New(spec.Protocol)
		if err != nil {
			return fmt.Errorf("appserver: native impl for %s: %w", spec.ID, err)
		}
		// Vary-sized blocking — the one ChunkCacheUser — encodes through the
		// server-wide chunk-index cache: each installed version is chunked
		// and digested once, not once per request or per precompute pass.
		if cu, ok := codec.Codec(impl).(codec.ChunkCacheUser); ok {
			cu.UseChunkCache(s.chunks)
		}
		s.pads[m.ID] = &pad{module: m, impl: impl}
		s.protoPAD[spec.Protocol] = m.ID
	}
	return nil
}

// ChunkCacheStats reports the counters of the chunk-index cache. Only
// vary-sized blocking encodes look versions up in it, so a server whose
// clients negotiated other protocols reads no lookups at request time.
func (s *Server) ChunkCacheStats() codec.ChunkCacheStats {
	return s.chunks.Stats()
}

// PADIDs returns the deployed PAD ids.
func (s *Server) PADIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pads))
	for id := range s.pads {
		out = append(out, id)
	}
	return out
}

// MeasureAppMeta pre-tests every deployed PAD against up to samplePages of
// the installed corpus (latest version against its predecessor) to fill
// the PADMeta overhead vectors, producing the AppMeta to push to the
// adaptation proxy. Digest and URL are filled from the module and the
// CDN publishing convention.
func (s *Server) MeasureAppMeta(samplePages int) (core.AppMeta, error) {
	if samplePages < 1 {
		return core.AppMeta{}, fmt.Errorf("appserver: need >= 1 sample page, got %d", samplePages)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.pads) == 0 {
		return core.AppMeta{}, fmt.Errorf("appserver: no PADs deployed")
	}
	// Collect sample (old, cur) pairs deterministically.
	type pair struct{ old, cur []byte }
	var pairs []pair
	ids := make([]string, 0, len(s.resources))
	for id := range s.resources {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if len(pairs) >= samplePages {
			break
		}
		chain := s.resources[id]
		if len(chain) == 0 {
			continue
		}
		cur := chain[len(chain)-1]
		var old []byte
		if len(chain) > 1 {
			old = chain[len(chain)-2]
		}
		pairs = append(pairs, pair{old: old, cur: cur})
	}
	if len(pairs) == 0 {
		return core.AppMeta{}, fmt.Errorf("appserver: no content installed to measure against")
	}

	app := core.AppMeta{AppID: s.appID}
	padIDs := make([]string, 0, len(s.pads))
	for id := range s.pads {
		// Transcoder PADs belong to the content-adaptation topology
		// (MeasureContentAdaptationAppMeta), not the flat one.
		if _, isTC := s.transcoders[id]; isTC {
			continue
		}
		padIDs = append(padIDs, id)
	}
	sort.Strings(padIDs)
	for _, id := range padIDs {
		p := s.pads[id]
		var traffic, upstream, content int64
		for _, pr := range pairs {
			payload, err := p.impl.Encode(pr.old, pr.cur)
			if err != nil {
				return core.AppMeta{}, fmt.Errorf("appserver: measuring %s: %w", id, err)
			}
			traffic += int64(len(payload))
			content += int64(len(pr.cur))
			if uc, ok := codec.Codec(p.impl).(codec.UpstreamCoster); ok {
				upstream += uc.UpstreamBytes(pr.old)
			}
		}
		n := int64(len(pairs))
		avgContent := content / n
		cost := p.impl.Cost()
		meta := core.PADMeta{
			ID:       p.module.ID,
			Version:  p.module.Version,
			Protocol: p.impl.Name(),
			Size:     p.module.Size(),
			Digest:   p.module.Digest,
			URL:      "/pads/" + p.module.ID,
			Overhead: core.PADOverhead{
				ServerCompStd: cost.ServerTime(avgContent),
				ClientCompStd: cost.ClientTime(avgContent),
				TrafficBytes:  traffic / n,
				UpstreamBytes: upstream / n,
			},
		}
		p.meta = meta
		app.PADs = append(app.PADs, meta)
	}
	return app, nil
}

// PublishPADs uploads every deployed PAD module to the CDN origin under
// its metadata URL.
func (s *Server) PublishPADs(origin *cdn.Origin) error {
	if origin == nil {
		return fmt.Errorf("appserver: nil CDN origin")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, p := range s.pads {
		packed, err := p.module.Pack()
		if err != nil {
			return fmt.Errorf("appserver: packing %s: %w", id, err)
		}
		if err := origin.Publish("/pads/"+id, packed); err != nil {
			return fmt.Errorf("appserver: publishing %s: %w", id, err)
		}
	}
	return nil
}

// TrustedKey returns the signing identity's public key for client trust
// lists.
func (s *Server) TrustedKey() (string, []byte) {
	return s.signer.Entity, s.signer.PublicKey()
}

// precomputeAllLocked rebuilds the proactive store for every (transcoder,
// PAD, resource) combination against each predecessor version and the
// cold-start case; the caller holds s.mu for writing.
func (s *Server) precomputeAllLocked() error {
	s.precomputed = map[precompKey][]byte{}
	tcs := []string{""}
	for id := range s.transcoders {
		tcs = append(tcs, id)
	}
	for res, chain := range s.resources {
		curV := len(chain)
		for _, tcID := range tcs {
			tc := s.transcoders[tcID]
			cur, err := transform(tcID, tc, chain[curV-1])
			if err != nil {
				return err
			}
			for id, p := range s.pads {
				// A base-independent protocol is encoded once and the one
				// payload stored under every have.
				_, once := p.impl.(codec.BaseIndependent)
				var payload []byte
				for have := 0; have <= curV; have++ {
					if !once || have == 0 {
						var old []byte
						if have > 0 {
							if old, err = transform(tcID, tc, chain[have-1]); err != nil {
								return err
							}
						}
						if payload, err = p.impl.Encode(old, cur); err != nil {
							return fmt.Errorf("appserver: precomputing %s/%s/%s@%d: %w", tcID, id, res, have, err)
						}
					}
					s.precomputed[precompKey{tcID, id, res, have}] = payload
				}
			}
		}
	}
	return nil
}

// transform applies transcoder tc to content. A nil tc — what the
// transcoder table holds for the id "" — is the identity.
func transform(tcID string, tc transcode.Transcoder, content []byte) ([]byte, error) {
	if tc == nil {
		return content, nil
	}
	out, err := tc.Transform(content)
	if err != nil {
		return nil, fmt.Errorf("appserver: transcoding with %s: %w", tcID, err)
	}
	return out, nil
}

// precompKey names one proactive encoding: the transcoder ("" = none) and
// PAD module applied, the resource, and the version the client holds.
type precompKey struct {
	transcoder, pad, resource string
	have                      int
}

// EncodeResult is the outcome of serving one request.
type EncodeResult struct {
	Payload      []byte
	Version      int
	PADID        string
	ContentBytes int64 // size of the full current version
	Precomputed  bool
}

// Encode serves a resource for a client that negotiated the given PAD
// path and holds haveVersion (0 = nothing). The path may contain one
// content-adaptation PAD (applied to the content first) and must contain
// one communication-optimization PAD. Context-specific metadata ids of the
// form "<module-id>@<context>" resolve to their module.
func (s *Server) Encode(padIDs []string, resource string, haveVersion int) (EncodeResult, error) {
	s.requests.Add(1)
	r, err := s.resolve(padIDs, resource, haveVersion)
	if err != nil {
		return EncodeResult{}, err
	}
	if r.precomputed {
		s.precompHits.Add(1)
		return EncodeResult{Payload: r.payload, Version: r.curV, PADID: r.padID, ContentBytes: int64(len(r.cur)), Precomputed: true}, nil
	}
	cur, err := transform(r.tcID, r.tc, r.cur)
	if err != nil {
		return EncodeResult{}, err
	}
	// haveVersion may equal the current version (client already current):
	// old is then the current content itself, and differencing protocols
	// collapse the payload to nearly nothing.
	old := r.old
	if old != nil {
		if old, err = transform(r.tcID, r.tc, old); err != nil {
			return EncodeResult{}, err
		}
	}
	payload, err := r.pad.impl.Encode(old, cur)
	if err != nil {
		return EncodeResult{}, fmt.Errorf("appserver: encoding %s with %s: %w", resource, r.padID, err)
	}
	s.reactive.Add(1)
	return EncodeResult{Payload: payload, Version: r.curV, PADID: r.padID, ContentBytes: int64(len(cur))}, nil
}

// resolved is everything one reply is built from.
type resolved struct {
	pad         *pad
	padID       string               // as negotiated, context suffix included
	tc          transcode.Transcoder // nil = the path names none
	tcID        string
	old, cur    []byte // old is nil for a client holding nothing
	curV        int
	payload     []byte // the proactive encoding, when precomputed
	precomputed bool
}

// resolve reads everything a reply depends on — PAD choice, transcoder,
// both versions, the current version number and, under Proactive, the
// precomputed payload — in one critical section. An InstallCorpus landing
// between separate reads could otherwise pair the newer version's payload
// with the older version's number, and the client would commit bytes under
// a version it does not hold.
func (s *Server) resolve(padIDs []string, resource string, haveVersion int) (resolved, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var r resolved
	for _, id := range padIDs {
		if tc, ok := s.transcoders[id]; ok {
			if r.tcID != "" && r.tcID != id {
				return r, fmt.Errorf("appserver: path names two transcoders (%s, %s)", r.tcID, id)
			}
			r.tc, r.tcID = tc, id
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
	chain := s.resources[resource]
	if len(chain) == 0 {
		return r, fmt.Errorf("appserver: no resource %q", resource)
	}
	r.curV = len(chain)
	if haveVersion < 0 || haveVersion > r.curV {
		return r, fmt.Errorf("appserver: client claims version %d of %s, newest is %d", haveVersion, resource, r.curV)
	}
	r.cur = chain[r.curV-1]
	if haveVersion > 0 {
		r.old = chain[haveVersion-1]
	}
	if s.strategy == Proactive {
		r.payload, r.precomputed = s.precomputed[precompKey{r.tcID, moduleOf(r.padID), resource, haveVersion}]
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
	}
}
