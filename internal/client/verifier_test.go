package client

import (
	"errors"
	"testing"

	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
)

// buildUnverifiableWorld is a directWorld whose served module is signed by
// a trusted entity but statically unsafe: the decode program calls a host
// capability outside the sandbox manifest. Provenance checks pass; only
// the bytecode verifier stands between the call and the sandbox.
func buildUnverifiableWorld(t *testing.T) *directWorld {
	t.Helper()
	signer, err := mobilecode.NewSigner("app-operator")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := mobilecode.Assemble("CALL identity\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := mobilecode.Assemble("CALL backdoor.fetch\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	encBin, err := enc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decBin, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := mobilecode.NewModule("pad-direct", "1.0", mobilecode.Payload{
		Protocol: "direct",
		Encode:   encBin,
		Decode:   decBin,
	}, signer)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := mod.Pack()
	if err != nil {
		t.Fatal(err)
	}
	trust := mobilecode.NewTrustList()
	if err := trust.Add(signer.Entity, signer.PublicKey()); err != nil {
		t.Fatal(err)
	}
	return &directWorld{
		trust: trust,
		meta: core.PADMeta{
			ID: mod.ID, Version: mod.Version, Protocol: "direct",
			Size: mod.Size(), Digest: mod.Digest, URL: "/pads/" + mod.ID,
		},
		packed: packed,
	}
}

// TestDeployRejectsUnverifiableModule: a properly signed module whose
// bytecode cannot be proven safe is refused at deploy time with the
// verifier's typed error, and the rejection is counted on both security
// counters. With a FallbackDirect module configured — a compromised
// mirror, not a dead one — the same rejection degrades the session to
// the local Direct module instead of failing it.
func TestDeployRejectsUnverifiableModule(t *testing.T) {
	for _, withFallback := range []bool{false, true} {
		w := buildUnverifiableWorld(t)
		cfg := w.config()
		content := funcContent(func(req inp.AppReq) (inp.AppRep, error) {
			t.Fatal("content fetched through an unverified protocol")
			return inp.AppRep{}, nil
		})
		if withFallback {
			cfg.FallbackDirect = buildFallbackDirect(t, w.trust)
			content = func(req inp.AppReq) (inp.AppRep, error) {
				return inp.AppRep{Resource: req.Resource, Version: 1, PADID: w.meta.ID, Payload: []byte("direct body")}, nil
			}
		}
		c, err := New(cfg, w.negotiator(), w.padStore(), content)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.Request("webapp", "page")
		st := c.Stats()
		if st.SecurityRejections != 1 || st.VerifierRejections != 1 {
			t.Fatalf("fallback=%v: rejections security=%d verifier=%d, want 1/1", withFallback, st.SecurityRejections, st.VerifierRejections)
		}
		if st.PADDownloads != 0 {
			t.Fatalf("fallback=%v: rejected module counted as downloaded: %d", withFallback, st.PADDownloads)
		}
		if withFallback {
			if err != nil {
				t.Fatalf("degraded request failed: %v", err)
			}
			if string(data) != "direct body" || st.Degradations != 1 {
				t.Fatalf("degraded content = %q, degradations = %d; want direct body, 1", data, st.Degradations)
			}
			continue
		}
		if err == nil {
			t.Fatal("request succeeded over an unverifiable module")
		}
		var vErr *verify.Error
		if !errors.As(err, &vErr) {
			t.Fatalf("rejection is not a typed verifier error: %v", err)
		}
		if !errors.Is(vErr.Kind, verify.ErrUndeclaredCall) {
			t.Fatalf("rejection kind = %v, want ErrUndeclaredCall", vErr.Kind)
		}
	}
}

// buildFallbackDirect packs the builtin Direct module as a device vendor
// ships it, trusting the vendor's key.
func buildFallbackDirect(t *testing.T, trust *mobilecode.TrustList) []byte {
	t.Helper()
	signer, err := mobilecode.NewSigner("device-vendor")
	if err != nil {
		t.Fatal(err)
	}
	if err := trust.Add(signer.Entity, signer.PublicKey()); err != nil {
		t.Fatal(err)
	}
	mod, err := mobilecode.BuildModule(mobilecode.BuiltinSpecs()[0], "1.0", signer)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := mod.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return packed
}
