package deploy

import (
	"bytes"
	"testing"

	"fractal/internal/core"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

// TestDeployAppKeepsNewestTwoVersions pins that an App built with a long
// version chain hands back only the newest two corpora, the ones the
// server holds, with the bytes of the chain evolved step by step.
func TestDeployAppKeepsNewestTwoVersions(t *testing.T) {
	const pages, seed = 3, 2005
	app, err := NewApp("webapp", pages, seed, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Versions) != 2 || cap(app.Versions) != 2 {
		t.Fatalf("App holds %d versions (cap %d), want the newest 2", len(app.Versions), cap(app.Versions))
	}
	cfg := workload.DefaultConfig(seed)
	cfg.Pages = pages
	chain := []*workload.Corpus{nil}
	c, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; ; v++ {
		chain = append(chain, c)
		if v == 6 {
			break
		}
		if c, err = workload.MutateCorpus(c, workload.DefaultMutation(seed+int64(v))); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []int{5, 6} {
		held := app.Versions[i]
		for j, p := range held.Pages {
			if p.Version != v || !bytes.Equal(p.Bytes(), chain[v].Pages[j].Bytes()) {
				t.Fatalf("Versions[%d] page %s is v%d, want the chain's v%d", i, p.ID, p.Version, v)
			}
		}
	}
	cur, v, err := app.Current("page-001")
	if err != nil || v != 6 || !bytes.Equal(cur, chain[6].Pages[1].Bytes()) {
		t.Fatalf("server serves v%d (%v), want the chain's v6", v, err)
	}

	one, err := NewApp("webapp", pages, seed, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Versions) != 1 || one.Versions[0].Pages[0].Version != 1 {
		t.Fatalf("a one-version App holds %d versions", len(one.Versions))
	}
}

// TestProxyNegotiatesUnderTheAppsStrategy pins that the content strategy
// travels in the measured topology: one proxy, built without knowing it,
// gives a PDA on Bluetooth vary-sized blocking from a proactive server,
// whose differences cost nothing at request time, and the bitmap codec
// from a reactive one, which would compute the vary-sized differences
// per request.
func TestProxyNegotiatesUnderTheAppsStrategy(t *testing.T) {
	pda := netsim.PDA
	env := core.Env{
		Dev:  core.DevMeta{OSType: string(pda.Device.OS), CPUType: string(pda.Device.CPU), CPUMHz: pda.Device.CPUMHz, MemMB: pda.Device.MemMB},
		Ntwk: core.NtwkMeta{NetworkType: string(pda.Link.Type), BandwidthKbps: pda.Link.BandwidthKbps},
	}
	for _, c := range []struct {
		proactive bool
		want      string
	}{{true, "pad-vary"}, {false, "pad-bitmap"}} {
		app, err := NewApp("webapp", 8, 2005, 2, c.proactive)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := Publish(app.Server, dir); err != nil {
			t.Fatal(err)
		}
		px, err := NewProxy(DirModules(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := px.PushAppMeta(app.Meta); err != nil {
			t.Fatal(err)
		}
		pads, err := px.Negotiate("webapp", env, SessionRequests)
		if err != nil {
			t.Fatal(err)
		}
		if pads[0].ID != c.want {
			t.Errorf("proactive=%v: the PDA negotiated %s, want %s", c.proactive, pads[0].ID, c.want)
		}
	}
}
