package core_test

import (
	"fmt"
	"time"

	"fractal/internal/core"
)

// The paper's Figure 5/6 walkthrough: a tree with a symbolic link, marked
// with total overheads, searched for the least-cost root-to-leaf path.
func ExampleFindPath() {
	pad := func(id, parent string, children []string, cost time.Duration) core.PADMeta {
		return core.PADMeta{
			ID: id, Protocol: "proto-" + id, Parent: parent, Children: children,
			Overhead: core.PADOverhead{ClientCompStd: cost},
		}
	}
	app := core.AppMeta{
		AppID: "fig5",
		PADs: []core.PADMeta{
			pad("PAD1", "", []string{"PAD4", "PAD5", "PAD6"}, 8*time.Second),
			pad("PAD2", "", []string{"PAD7"}, 4*time.Second),
			pad("PAD4", "PAD1", nil, 6*time.Second),
			pad("PAD5", "PAD1", nil, 9*time.Second),
			{ID: "PAD6", Parent: "PAD1", Alias: "PAD7"}, // symbolic link
			pad("PAD7", "PAD2", nil, 5*time.Second),
		},
	}
	pat, err := core.BuildPAT(app)
	if err != nil {
		fmt.Println(err)
		return
	}
	ms, err := core.Neutral([]string{"any"})
	if err != nil {
		fmt.Println(err)
		return
	}
	model := core.OverheadModel{
		Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1,
	}
	env := core.Env{
		Dev:  core.DevMeta{OSType: "os", CPUType: "cpu", CPUMHz: core.StdCPUMHz, MemMB: 64},
		Ntwk: core.NtwkMeta{NetworkType: "net", BandwidthKbps: 1e9},
	}
	res, err := core.FindPath(pat, model, env)
	if err != nil {
		fmt.Println(err)
		return
	}
	ids := make([]string, len(res.PADs))
	for i, p := range res.PADs {
		ids[i] = p.ID
	}
	fmt.Printf("path %v, total %.0fs\n", ids, res.Total)
	// Output: path [PAD2 PAD7], total 9s
}

// The motivating normalized-ratio example (Section 3.4.2): the linearly
// cheaper Kinoma player is disqualified on WinCE by an infinite ratio.
func ExampleRatioMatrix() {
	m, err := core.MediaPlayerExampleMatrix()
	if err != nil {
		fmt.Println(err)
		return
	}
	winmedia := 5.0 * m.Ratio("winmedia", "WinCE")
	kinoma := 2.0 * m.Ratio("kinoma", "WinCE")
	fmt.Printf("WinMedia %.0fs, Kinoma %v -> pick WinMedia\n", winmedia, kinoma)
	// Output: WinMedia 5s, Kinoma +Inf -> pick WinMedia
}
