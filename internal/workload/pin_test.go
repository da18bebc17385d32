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
func TestCorpusBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default-2005", DefaultConfig(2005), "c72ba3451e27568a14d5fc9a68933b2c5da3642555f6e7cf27bf270a90430882"},
		{"small", Config{Pages: 5, TextBytes: 700, Images: 3, ImageBytes: 20000, Seed: 77, NoiseEvery: 5}, "4293b73ab412b98810724a02e87fd8ea1636a9b6a7b3ec0a4e201ddc1499769b"},
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
