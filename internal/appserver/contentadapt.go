package appserver

import (
	"fmt"
	"sort"

	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
	"fractal/internal/transcode"
)

// DeployContentAdaptation installs the content-adaptation PAD layer (the
// Section 5 extension): the full-fidelity and thumbnail transcoders are
// built as signed mobile-code modules, registered server-side, and made
// available for a two-level protocol adaptation tree. DeployPADs must have
// run first, since the communication-optimization PADs form the second
// level.
func (s *Server) DeployContentAdaptation(moduleVersion string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pads) == 0 {
		return fmt.Errorf("appserver: deploy communication PADs before content adaptation")
	}
	for _, spec := range mobilecode.TranscoderSpecs() {
		m, err := mobilecode.BuildModule(spec, moduleVersion, s.signer)
		if err != nil {
			return fmt.Errorf("appserver: building %s: %w", spec.ID, err)
		}
		if _, err := verify.Module(m, mobilecode.DefaultSandbox()); err != nil {
			return fmt.Errorf("appserver: %s: %w", spec.ID, err)
		}
		tc, err := transcode.New(spec.Protocol)
		if err != nil {
			return fmt.Errorf("appserver: transcoder for %s: %w", spec.ID, err)
		}
		s.transcoders[m.ID] = tc
		// The transcoder PAD participates in distribution like any other
		// module: clients download and verify it.
		s.pads[m.ID] = &pad{module: m, impl: transcoderShim{tc}}
	}
	return nil
}

// MeasureContentAdaptationAppMeta builds the two-level AppMeta of the
// content-adaptation application: transcoder PADs at the first level, the
// communication-optimization PADs at the second, measured separately under
// each rendition because the adapted content changes every overhead
// vector. Second-level entries under a non-identity rendition get
// context-qualified ids ("pad-gzip@thumbnail") pointing at the same
// module.
func (s *Server) MeasureContentAdaptationAppMeta(appID string, samplePages int) (core.AppMeta, error) {
	if appID == "" {
		return core.AppMeta{}, fmt.Errorf("appserver: content-adaptation AppMeta needs an app id")
	}
	if samplePages < 1 {
		return core.AppMeta{}, fmt.Errorf("appserver: need >= 1 sample page, got %d", samplePages)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.transcoders) == 0 {
		return core.AppMeta{}, fmt.Errorf("appserver: no content adaptation deployed")
	}

	pairs, avgContent, err := s.samplePairsLocked(samplePages)
	if err != nil {
		return core.AppMeta{}, err
	}

	app := core.AppMeta{AppID: appID}
	tcIDs := make([]string, 0, len(s.transcoders))
	for id := range s.transcoders {
		tcIDs = append(tcIDs, id)
	}
	sort.Strings(tcIDs)
	commIDs := make([]string, 0, len(s.pads))
	for id := range s.pads {
		if _, isTC := s.transcoders[id]; !isTC {
			commIDs = append(commIDs, id)
		}
	}
	sort.Strings(commIDs)

	for _, tcID := range tcIDs {
		tc := s.transcoders[tcID]
		tcPad := s.pads[tcID]
		tcCost := tc.Cost()
		root := core.PADMeta{
			ID:       tcID,
			Version:  tcPad.module.Version,
			Protocol: tc.Name(),
			Size:     tcPad.module.Size(),
			Digest:   tcPad.module.Digest,
			URL:      "/pads/" + tcID,
			Overhead: core.PADOverhead{
				ServerCompStd: tcCost.ServerTime(avgContent),
				ClientCompStd: tcCost.ClientTime(avgContent),
			},
		}
		for _, commID := range commIDs {
			p := s.pads[commID]
			metaID := commID
			if tc.Name() != transcode.NameIdentity {
				metaID = commID + "@" + tc.Name()
			}
			var traffic, upstream, content int64
			for _, pr := range pairs {
				tOld := pr.old
				if tOld != nil {
					if tOld, err = transform(tcID, tc, tOld); err != nil {
						return core.AppMeta{}, err
					}
				}
				tCur, err := transform(tcID, tc, pr.cur)
				if err != nil {
					return core.AppMeta{}, err
				}
				payload, err := p.impl.Encode(tOld, tCur)
				if err != nil {
					return core.AppMeta{}, fmt.Errorf("appserver: measuring %s under %s: %w", commID, tcID, err)
				}
				traffic += int64(len(payload))
				content += int64(len(tCur))
				if uc, ok := codec.Codec(p.impl).(codec.UpstreamCoster); ok {
					upstream += uc.UpstreamBytes(tOld)
				}
			}
			n := int64(len(pairs))
			cost := p.impl.Cost()
			child := core.PADMeta{
				ID:       metaID,
				Version:  p.module.Version,
				Protocol: p.impl.Name(),
				Size:     p.module.Size(),
				Digest:   p.module.Digest,
				URL:      "/pads/" + commID,
				Parent:   tcID,
				Overhead: core.PADOverhead{
					ServerCompStd: cost.ServerTime(content / n),
					ClientCompStd: cost.ClientTime(content / n),
					TrafficBytes:  traffic / n,
					UpstreamBytes: upstream / n,
				},
			}
			root.Children = append(root.Children, metaID)
			app.PADs = append(app.PADs, child)
		}
		app.PADs = append(app.PADs, root)
	}
	return app, nil
}

// DeployExtraPAD extends a running server with an additional protocol
// adaptor: the spec is built and signed, the native implementation is
// registered for serving, and the returned metadata — measured on the
// installed corpus like the builtin set — is ready to be appended to the
// application's AppMeta and pushed to the adaptation proxy. PublishPADs
// republishes all modules including the new one.
func (s *Server) DeployExtraPAD(spec mobilecode.BuiltinSpec, moduleVersion string, samplePages int) (core.PADMeta, error) {
	if samplePages < 1 {
		return core.PADMeta{}, fmt.Errorf("appserver: need >= 1 sample page, got %d", samplePages)
	}
	m, err := mobilecode.BuildModule(spec, moduleVersion, s.signer)
	if err != nil {
		return core.PADMeta{}, fmt.Errorf("appserver: building %s: %w", spec.ID, err)
	}
	if _, err := verify.Module(m, mobilecode.DefaultSandbox()); err != nil {
		return core.PADMeta{}, fmt.Errorf("appserver: %s: %w", spec.ID, err)
	}
	impl, err := s.implFor(spec, m)
	if err != nil {
		return core.PADMeta{}, err
	}
	s.mu.Lock()
	if _, dup := s.pads[m.ID]; dup {
		s.mu.Unlock()
		return core.PADMeta{}, fmt.Errorf("appserver: PAD %s already deployed", m.ID)
	}
	s.pads[m.ID] = &pad{module: m, impl: impl}
	s.protoPAD[spec.Protocol] = m.ID
	s.mu.Unlock()

	s.mu.RLock()
	defer s.mu.RUnlock()
	pairs, _, err := s.samplePairsLocked(samplePages)
	if err != nil {
		return core.PADMeta{}, err
	}
	var traffic, upstream, content int64
	for _, pr := range pairs {
		payload, err := impl.Encode(pr.old, pr.cur)
		if err != nil {
			return core.PADMeta{}, fmt.Errorf("appserver: measuring %s: %w", m.ID, err)
		}
		traffic += int64(len(payload))
		content += int64(len(pr.cur))
		if uc, ok := codec.Codec(impl).(codec.UpstreamCoster); ok {
			upstream += uc.UpstreamBytes(pr.old)
		}
	}
	n := int64(len(pairs))
	cost := impl.Cost()
	meta := core.PADMeta{
		ID:       m.ID,
		Version:  m.Version,
		Protocol: impl.Name(),
		Size:     m.Size(),
		Digest:   m.Digest,
		URL:      "/pads/" + m.ID,
		Overhead: core.PADOverhead{
			ServerCompStd: cost.ServerTime(content / n),
			ClientCompStd: cost.ClientTime(content / n),
			TrafficBytes:  traffic / n,
			UpstreamBytes: upstream / n,
		},
	}
	s.pads[m.ID].meta = meta
	return meta, nil
}

// samplePairsLocked collects deterministic (old, cur) measurement pairs;
// the caller holds s.mu (read).
func (s *Server) samplePairsLocked(samplePages int) ([]measurePair, int64, error) {
	ids := make([]string, 0, len(s.resources))
	for id := range s.resources {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var pairs []measurePair
	var content int64
	for _, id := range ids {
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

// measurePair is one (old, cur) measurement sample.
type measurePair struct{ old, cur []byte }

// implFor resolves a spec's serving implementation: the registered native
// codec when one exists, otherwise the server deploys the module's own
// mobile code in a sandbox and runs it natively — pure VM compositions
// like CascadeSpec need no Go implementation at all.
func (s *Server) implFor(spec mobilecode.BuiltinSpec, m *mobilecode.Module) (codec.Costed, error) {
	if impl, err := codec.New(spec.Protocol); err == nil {
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

// transcoderShim adapts a Transcoder to the internal pad slot; its
// Encode/Decode are never used for wire traffic (the transcoder runs
// inside the chain), but the module plumbing (publish, digest, size) is
// shared.
type transcoderShim struct {
	tc transcode.Transcoder
}

func (t transcoderShim) Name() string { return t.tc.Name() }
func (t transcoderShim) Encode(old, cur []byte) ([]byte, error) {
	return t.tc.Transform(cur)
}
func (t transcoderShim) Decode(old, payload []byte) ([]byte, error) {
	return append([]byte(nil), payload...), nil
}
func (t transcoderShim) Cost() codec.CostModel { return t.tc.Cost() }
