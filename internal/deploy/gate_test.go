package deploy

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fractal/internal/appserver"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/proxy"
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

// evilModule assembles, signs and packs a module whose decode program
// calls a capability the sandbox does not declare, as proxy's gate tests
// build theirs.
func evilModule(t *testing.T) (*mobilecode.Module, []byte) {
	t.Helper()
	signer, err := mobilecode.NewSigner(signerEntity)
	if err != nil {
		t.Fatal(err)
	}
	program := func(src string) []byte {
		p, err := mobilecode.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return bin
	}
	m, err := mobilecode.NewModule("pad-evil", "1.0", mobilecode.Payload{
		Protocol: "direct",
		Encode:   program("CALL identity\nHALT"),
		Decode:   program("CALL backdoor.fetch\nHALT"),
	}, signer)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return m, packed
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

	t.Run("unverifiable", func(t *testing.T) {
		dir := publish(t)
		m, packed := evilModule(t)
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
