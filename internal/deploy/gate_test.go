package deploy

import (
	"crypto/ed25519"
	"crypto/sha1"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fractal/internal/appserver"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
	"fractal/internal/proxy"
	"fractal/internal/wire"
)

// quiet discards a daemon's log.
func quiet(string, ...interface{}) {}

// servedProxy builds and serves the proxy as fractald does, gated on dir.
func servedProxy(t testing.TB, dir string) (*proxy.Proxy, string) {
	t.Helper()
	px, err := NewProxy(false, DirModules(dir))
	if err != nil {
		t.Fatal(err)
	}
	return px, serve(t, px)
}

func serve(t testing.TB, px *proxy.Proxy) string {
	t.Helper()
	ep, err := Serve("127.0.0.1:0", proxy.NewServer, px, quiet)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep.Addr()
}

// pdaEnv is the paper's PDA on Bluetooth.
var pdaEnv = core.Env{
	Dev:  core.DevMeta{OSType: core.OSWinCE, CPUType: core.CPUTypePXA255, CPUMHz: 400, MemMB: 64},
	Ntwk: core.NtwkMeta{NetworkType: core.NetBluetooth, BandwidthKbps: 723},
}

// newSigner is a code-signing key for the application operator.
func newSigner(t *testing.T) *mobilecode.Signer {
	t.Helper()
	signer, err := mobilecode.NewSigner(signerEntity)
	if err != nil {
		t.Fatal(err)
	}
	return signer
}

// signedModule signs and packs a module, named id, whose encode program
// is CALL identity and whose decode program is the given encoding.
// NewModule refuses a decode program outside the language, so the module
// is signed here over the section Pack writes.
func signedModule(t *testing.T, signer *mobilecode.Signer, id string, decode []byte) (*mobilecode.Module, []byte) {
	t.Helper()
	p, err := mobilecode.Assemble("CALL identity\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	encode, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m := &mobilecode.Module{ID: id, Version: "1.0", Entity: signer.Entity,
		Payload: mobilecode.Payload{Protocol: "direct", Encode: encode, Decode: decode},
		Sig:     make([]byte, ed25519.SignatureSize)}
	unsigned, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(unsigned[len("FMC2"):], false)
	r.Str() // id
	r.Str() // version
	r.Str() // entity
	m.Digest = sha1.Sum(r.Bytes())
	m.Sig = signer.Sign(m.ID, m.Version, m.Digest)
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return m, packed
}

// evilModule's decode program calls a capability the sandbox does not
// declare.
func evilModule(t *testing.T) (*mobilecode.Module, []byte) {
	p, err := mobilecode.Assemble("CALL backdoor.fetch\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return signedModule(t, newSigner(t), "pad-evil", bin)
}

// legacyModule's decode program is PUSH 1, POP, CALL identity, HALT in the
// program encoding (opcode, varint immediate, symbol): PUSH and POP were
// opcodes 2 and 3 of a larger language the verifier once accepted.
func legacyModule(t *testing.T, signer *mobilecode.Signer) (*mobilecode.Module, []byte) {
	decode := append([]byte{4, 2, 2, 0, 3, 0, 0, 14, 0, 8}, "identity"...)
	return signedModule(t, signer, "pad-legacy", append(decode, 1, 0, 0))
}

// TestShippedProxyGate pushes over TCP, as fractal-server does, to the
// proxy fractald builds: the topology registers only when every module it
// names is in the publish directory and passes the verifier.
func TestShippedProxyGate(t *testing.T) {
	app := smallApp(t)
	publish := func(t *testing.T) string {
		dir := t.TempDir()
		if err := Publish(app.Server, dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("published", func(t *testing.T) {
		px, addr := servedProxy(t, publish(t))
		if err := appserver.PushAppMetaTCP(addr, app.Meta); err != nil {
			t.Fatalf("valid publish directory refused: %v", err)
		}
		if st := px.Stats(); st.TopologyPushes != 1 || st.VerifierRejections != 0 {
			t.Fatalf("stats after accepted push: %+v", st)
		}
		if _, err := px.Negotiate(app.AppID(), pdaEnv, SessionRequests); err != nil {
			t.Fatalf("accepted topology is not negotiable: %v", err)
		}
	})

	t.Run("missing", func(t *testing.T) {
		dir := publish(t)
		if err := os.Remove(filepath.Join(dir, "pad-gzip.fmc")); err != nil {
			t.Fatal(err)
		}
		px, addr := servedProxy(t, dir)
		err := appserver.PushAppMetaTCP(addr, app.Meta)
		if err == nil || !strings.Contains(err.Error(), "no object") {
			t.Fatalf("push naming a missing module: %v", err)
		}
		if st := px.Stats(); st.TopologyPushes != 0 {
			t.Fatalf("refused topology counted: %+v", st)
		}
		if _, err := px.Negotiate(app.AppID(), pdaEnv, SessionRequests); err == nil {
			t.Fatal("refused topology is negotiable")
		}
	})

	refused := func(t *testing.T, m *mobilecode.Module, packed []byte) {
		dir := publish(t)
		if err := os.WriteFile(filepath.Join(dir, m.ID+".fmc"), packed, 0o644); err != nil {
			t.Fatal(err)
		}
		px, addr := servedProxy(t, dir)
		evil := core.AppMeta{AppID: "gated", PADs: []core.PADMeta{{
			ID: m.ID, Protocol: "direct", Size: m.Size(), Digest: m.Digest, URL: "/pads/" + m.ID,
		}}}
		err := appserver.PushAppMetaTCP(addr, evil)
		if err == nil || !strings.Contains(err.Error(), "rejecting topology") {
			t.Fatalf("push naming an unverifiable module: %v", err)
		}
		if st := px.Stats(); st.VerifierRejections != 1 || st.TopologyPushes != 0 {
			t.Fatalf("stats after verifier rejection: %+v", st)
		}
	}

	t.Run("unverifiable", func(t *testing.T) {
		m, packed := evilModule(t)
		refused(t, m, packed)
	})

	// A signed module in the larger language refused at every gate: the
	// client's loader with and without the verifier, the verifier alone,
	// and the proxy's registration gate.
	t.Run("removed opcode", func(t *testing.T) {
		signer := newSigner(t)
		m, packed := legacyModule(t, signer)
		trust := mobilecode.NewTrustList()
		if err := trust.Add(signer.Entity, signer.PublicKey()); err != nil {
			t.Fatal(err)
		}
		loader, err := mobilecode.NewLoader(trust, mobilecode.DefaultSandbox())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loader.Load(packed); err == nil || !strings.Contains(err.Error(), "OP(2)") {
			t.Fatalf("loader without the verifier: %v, want PUSH refused", err)
		}
		loader.SetVerifier(verify.LoaderVerifier())
		if _, err := loader.Load(packed); err == nil {
			t.Fatal("loader with the verifier deployed a removed opcode")
		}
		if _, err := verify.Packed(packed, mobilecode.DefaultSandbox()); err == nil {
			t.Fatal("verifier accepted a removed opcode")
		}
		refused(t, m, packed)
	})
}

// BenchmarkAppMetaPush is the gate's registration cost: one AppMeta push
// over TCP to a gated proxy (the directory loaded per module, each module
// digest-checked and verified) against one to an ungated proxy.
func BenchmarkAppMetaPush(b *testing.B) {
	app := smallApp(b)
	dir := b.TempDir()
	if err := Publish(app.Server, dir); err != nil {
		b.Fatal(err)
	}
	model, err := Model(false)
	if err != nil {
		b.Fatal(err)
	}
	ungated, err := proxy.New(model, cacheCapacity)
	if err != nil {
		b.Fatal(err)
	}
	_, gatedAddr := servedProxy(b, dir)
	for _, c := range []struct{ name, addr string }{
		{"gated", gatedAddr},
		{"ungated", serve(b, ungated)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := appserver.PushAppMetaTCP(c.addr, app.Meta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
