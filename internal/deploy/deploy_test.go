package deploy

import (
	"bytes"
	"testing"

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
