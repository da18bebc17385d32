package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCorpusBytesPinned pins the SHA-256 over Page.Bytes() of a generated
// corpus and of two mutation steps after it, every page in order. The
// determinism tests compare a run with itself, so they cannot see a draw
// that moved from one generator stream to another or between pages; this
// pin holds the bytes to the ones the sequential generator produced.
// "noise-1" (every slab byte drawn at random) and "wrap" (a page whose
// images need more slabs than its 48-slab dictionary, so slabs repeat)
// reach the generator's two branches the other cases miss; their hashes
// were read from the generator that still built a per-page slab pool and
// drew each noise byte through rand.Intn.
func TestCorpusBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default-2005", DefaultConfig(2005), "c72ba3451e27568a14d5fc9a68933b2c5da3642555f6e7cf27bf270a90430882"},
		{"small", Config{Pages: 5, TextBytes: 700, Images: 3, ImageBytes: 20000, Seed: 77, NoiseEvery: 5}, "4293b73ab412b98810724a02e87fd8ea1636a9b6a7b3ec0a4e201ddc1499769b"},
		{"noise-1", Config{Pages: 5, TextBytes: 700, Images: 3, ImageBytes: 20000, Seed: 77, NoiseEvery: 1}, "0514b1cc81e8500cb1c94c0988e5bbdb49a4302fd008b4f1be85d8c0d5f17803"},
		{"wrap", Config{Pages: 2, TextBytes: 300, Images: 2, ImageBytes: 250000, Seed: 9, NoiseEvery: 3}, "0be43e21dc9ada5174be64c0c65c7fe326109a20357a0c36069a896b262ff0e5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for step := int64(1); ; step++ {
				for _, p := range c.Pages {
					h.Write(p.Bytes())
				}
				if step > 2 {
					break
				}
				if c, err = MutateCorpus(c, DefaultMutation(tc.cfg.Seed+step)); err != nil {
					t.Fatal(err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("corpus SHA-256 = %s, want %s", got, tc.want)
			}
		})
	}
}
