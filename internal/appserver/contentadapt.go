package appserver

import (
	"fmt"

	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/transcode"
)

// DeployContentAdaptation installs the content-adaptation PAD layer (the
// Section 5 extension): the full-fidelity and thumbnail transcoders are
// built as signed mobile-code modules, registered server-side, and made
// available for a two-level protocol adaptation tree. DeployPADs must have
// run first, since the communication-optimization PADs form the second
// level.
func (s *Server) DeployContentAdaptation(moduleVersion string) error {
	built := map[string]transcoder{}
	for _, spec := range mobilecode.TranscoderSpecs() {
		m, err := s.build(spec, moduleVersion)
		if err != nil {
			return err
		}
		tc, err := transcode.New(spec.Protocol)
		if err != nil {
			return fmt.Errorf("appserver: transcoder for %s: %w", spec.ID, err)
		}
		built[m.ID] = transcoder{module: m, tc: tc}
	}
	return s.register(func() error {
		if len(s.pads) == 0 {
			return fmt.Errorf("appserver: deploy communication PADs before content adaptation")
		}
		for id, t := range built {
			s.transcoders[id] = t
		}
		return nil
	})
}

// MeasureContentAdaptationAppMeta builds the two-level AppMeta of the
// content-adaptation application: transcoder PADs at the first level, the
// communication-optimization PADs at the second, pre-tested separately
// under each rendition because the adapted content changes every overhead
// vector. Second-level entries under a non-identity rendition get
// context-qualified ids ("pad-gzip@thumbnail") pointing at the same
// module.
func (s *Server) MeasureContentAdaptationAppMeta(samplePages int) (core.AppMeta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.transcoders) == 0 {
		return core.AppMeta{}, fmt.Errorf("appserver: no content adaptation deployed")
	}
	pairs, avgContent, err := s.samplePairsLocked(samplePages)
	if err != nil {
		return core.AppMeta{}, err
	}
	app := core.AppMeta{AppID: s.appID}
	for _, tcID := range sortedIDs(s.transcoders) {
		t := s.transcoders[tcID]
		root := padMeta(t.module, t.tc.Name(), t.tc.Cost(), avgContent)
		for _, id := range sortedIDs(s.pads) {
			child, err := pretest(s.pads[id], t.tc, pairs)
			if err != nil {
				return core.AppMeta{}, err
			}
			if t.tc.Name() != transcode.NameIdentity {
				child.ID += "@" + t.tc.Name()
			}
			child.Parent = tcID
			root.Children = append(root.Children, child.ID)
			app.PADs = append(app.PADs, child)
		}
		app.PADs = append(app.PADs, root)
	}
	return app, nil
}

// DeployExtraPAD extends a running server with an additional protocol
// adaptor: the spec goes through the same registration path as the
// builtin set, and the returned metadata — pre-tested on the installed
// corpus like theirs — is ready to be appended to the application's
// AppMeta and pushed to the adaptation proxy. PublishPADs republishes all
// modules including the new one.
func (s *Server) DeployExtraPAD(spec mobilecode.BuiltinSpec, moduleVersion string, samplePages int) (core.PADMeta, error) {
	if samplePages < 1 {
		return core.PADMeta{}, fmt.Errorf("appserver: need >= 1 sample page, got %d", samplePages)
	}
	if err := s.addPADs(moduleVersion, spec); err != nil {
		return core.PADMeta{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	pairs, _, err := s.samplePairsLocked(samplePages)
	if err != nil {
		return core.PADMeta{}, err
	}
	return pretest(s.pads[spec.ID], nil, pairs)
}
