// Surgery reproduces the paper's motivating application: distributed
// computer-assisted surgery [29], where a medical application server holds
// studies of four 3D views (~130 KB of images per page) that are updated
// between accesses, and clinicians follow them from weak devices on slow
// links.
//
// The example streams five successive versions of one study to a PDA on
// Bluetooth and compares the wire cost of every protocol for the same
// update stream, then shows that the negotiated protocol matches the
// cheapest feasible choice under each server strategy.
//
// Run with:
//
//	go run ./examples/surgery
package main

import (
	"fmt"
	"log"

	"fractal/internal/codec"
	"fractal/internal/experiment"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

const versions = 5

func main() {
	// A study evolving through five versions: each revision moves view
	// content around (slab reshuffles) and introduces some new imagery.
	chain := make([]*workload.Corpus, 0, versions)
	v, err := workload.Generate(workload.Config{
		Pages: 1, TextBytes: 4096, Images: 4, ImageBytes: 32 * 1024, Seed: 29,
	})
	check(err)
	chain = append(chain, v)
	for i := 1; i < versions; i++ {
		v, err = workload.MutateCorpus(v, workload.DefaultMutation(int64(29+i)))
		check(err)
		chain = append(chain, v)
	}

	fmt.Println("wire bytes to follow one study across versions (PDA, Bluetooth):")
	fmt.Println("protocol   cold     v2→     v3→     v4→     v5      total")
	totals := map[string]int64{}
	for _, name := range []string{
		codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock,
	} {
		c, err := codec.New(name)
		check(err)
		fmt.Printf("%-10s", name)
		var old []byte
		var total int64
		for i := 0; i < versions; i++ {
			cur := chain[i].Pages[0].Bytes()
			payload, err := c.Encode(old, cur)
			check(err)
			cost := int64(len(payload))
			if uc, ok := c.(codec.UpstreamCoster); ok {
				cost += uc.UpstreamBytes(old)
			}
			total += cost
			fmt.Printf("%8d", cost)
			// The client reconstructs and keeps the new version.
			got, err := c.Decode(old, payload)
			check(err)
			old = got
		}
		totals[name] = total
		fmt.Printf("%11d\n", total)
	}

	direct := totals[codec.NameDirect]
	fmt.Printf("\nupdate-stream savings vs direct sending: gzip %.0f%%, bitmap %.0f%%, vary %.0f%%\n",
		100*(1-float64(totals[codec.NameGzip])/float64(direct)),
		100*(1-float64(totals[codec.NameBitmap])/float64(direct)),
		100*(1-float64(totals[codec.NameVaryBlock])/float64(direct)))

	// What does Fractal negotiate for this clinic's PDA? Build the full
	// platform and ask, under both server strategies.
	s, err := experiment.NewSetup(experiment.DefaultSetupConfig())
	check(err)
	for _, strategy := range []struct {
		name          string
		includeServer bool
	}{
		{"reactive server (differences computed per request)", true},
		{"proactive server (differences precomputed)", false},
	} {
		grid, err := experiment.RunFig11Grid(s, strategy.includeServer)
		check(err)
		fmt.Printf("%-52s -> PDA uses %s\n", strategy.name, grid.Winner[netsim.PDA.Device.Name])
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
