package mobilecode

import (
	"bytes"
	"errors"
	"testing"

	"fractal/internal/cdn"
	"fractal/internal/workload"
)

// guarded is a VM input laid out the way a careless VM could damage it: a
// window in the middle of a larger sentinel-filled array, handed over with
// its spare capacity intact, so a write before, inside or after the window
// shows up against the snapshot.
type guarded struct {
	backing, snap, win []byte
}

func guard(data []byte) *guarded {
	const margin = 96
	backing := bytes.Repeat([]byte{0xA5}, margin+len(data)+margin)
	copy(backing[margin:], data)
	return &guarded{
		backing: backing,
		snap:    bytes.Clone(backing),
		win:     backing[margin : margin+len(data)], // cap runs to the end of backing
	}
}

func (g *guarded) intact() bool { return bytes.Equal(g.backing, g.snap) }

func requireIntact(t *testing.T, what string, gs ...*guarded) {
	t.Helper()
	for i, g := range gs {
		if !g.intact() {
			t.Fatalf("%s: input %d (or the bytes around it) was written", what, i)
		}
	}
}

// TestRunNeverWritesInputs pins the contract Run's by-reference inputs rest
// on: whatever a program does, the caller's buffers — and the storage
// around them — read the same afterwards, and the results are what a run
// on private copies of the inputs produces.
func TestRunNeverWritesInputs(t *testing.T) {
	t.Run("modules", func(t *testing.T) {
		s := testSigner(t)
		loader, err := NewLoader(testTrust(t, s), DefaultSandbox())
		if err != nil {
			t.Fatal(err)
		}
		c, err := workload.Generate(workload.Config{Pages: 2, TextBytes: 3072, Images: 2, ImageBytes: 8192, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		specs := append(BuiltinSpecs(), RsyncSpec(), CascadeSpec())
		specs = append(specs, TranscoderSpecs()...)
		for _, spec := range specs {
			m, err := BuildModule(spec, "1.0", s)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := m.Pack()
			if err != nil {
				t.Fatal(err)
			}
			pad, err := loader.Load(packed)
			if err != nil {
				t.Fatalf("loading %s: %v", spec.ID, err)
			}
			for pi, page := range c.Pages {
				next, err := workload.Mutate(page, workload.DefaultMutation(int64(30+pi)))
				if err != nil {
					t.Fatal(err)
				}
				v1, v2 := page.Bytes(), next.Bytes()
				for _, tc := range []struct {
					name     string
					old, cur []byte
				}{
					{"cold", nil, v2},
					{"diff", v1, v2},
					{"current", v2, v2},
				} {
					what := spec.ID + "/" + page.ID + "/" + tc.name
					old, cur := guard(tc.old), guard(tc.cur)
					payload, err := pad.Encode(old.win, cur.win)
					if err != nil {
						t.Fatalf("%s: encode: %v", what, err)
					}
					requireIntact(t, what+" encode", old, cur)
					want, err := pad.Encode(bytes.Clone(tc.old), bytes.Clone(tc.cur))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(payload, want) {
						t.Fatalf("%s: payload differs from the one encoded from private copies", what)
					}
					wire := guard(payload)
					got, err := pad.Decode(old.win, wire.win)
					if err != nil {
						t.Fatalf("%s: decode: %v", what, err)
					}
					if !bytes.Equal(got, tc.cur) {
						t.Fatalf("%s: decoded content differs from the current version", what)
					}
					// A result may alias an input; growing it must still not
					// reach the input's neighbours.
					_ = append(got, "tail"...)
					requireIntact(t, what+" decode", old, wire)
				}
			}
		}
	})

	a, b := []byte("AAAAAAAAAAAAAAAA"), []byte("bbbbbbbb")
	for _, tc := range []struct {
		name string
		src  string
		in   [][]byte
		want [][]byte
	}{
		{"result is the input", `HALT`, [][]byte{a, b}, [][]byte{a, b}},
		{"result is a shuffled input", `
			SWAPB
			DUPB
			DROPB
			HALT`, [][]byte{a, b}, [][]byte{b, a}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gs := make([]*guarded, len(tc.in))
			in := make([][]byte, len(tc.in))
			for i, data := range tc.in {
				gs[i] = guard(data)
				in[i] = gs[i].win
			}
			out, err := testVM(t).Run(MustAssemble(tc.src), in)
			if err != nil {
				t.Fatal(err)
			}
			requireIntact(t, "run", gs...)
			if len(out) != len(tc.want) {
				t.Fatalf("%d result buffers, want %d", len(out), len(tc.want))
			}
			for i := range out {
				if !bytes.Equal(out[i], tc.want[i]) {
					t.Fatalf("result %d = %q, want %q", i, out[i], tc.want[i])
				}
				// The caller may do what it likes with a result, appending
				// included, without reaching an input's neighbours.
				_ = append(out[i], "tail"...)
			}
			requireIntact(t, "appending to the results", gs...)
		})
	}
}

// TestDupBChargedThoughShared pins the sandbox's accounting under sharing:
// the budget charges every byte a program holds, so a duplicate costs its
// full length although it copies nothing.
func TestDupBChargedThoughShared(t *testing.T) {
	hosts, err := HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(hosts, Sandbox{MaxBufferBytes: 1000, MaxStackDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	dup := MustAssemble("DUPB\nHALT")
	if _, err := vm.Run(dup, [][]byte{make([]byte, 500)}); err != nil {
		t.Fatalf("two references to 500 bytes under a 1000-byte budget: %v", err)
	}
	if _, err := vm.Run(dup, [][]byte{make([]byte, 501)}); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("two references to 501 bytes under a 1000-byte budget: %v, want memory budget", err)
	}
}

// TestLoadNeverWritesPacked pins the aliasing contract of Unpack, Load and
// Module: packed is never written, and the programs a module carries are
// windows of it whose capacity ends where they do, so growing one cannot
// reach the bytes behind it.
func TestLoadNeverWritesPacked(t *testing.T) {
	s := testSigner(t)
	loader, err := NewLoader(testTrust(t, s), DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	origin := cdn.NewOrigin()
	specs := append(BuiltinSpecs(), RsyncSpec(), CascadeSpec())
	specs = append(specs, TranscoderSpecs()...)
	for _, spec := range specs {
		m, err := BuildModule(spec, "1.0", s)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		g := guard(packed)
		pad, err := loader.Load(g.win)
		if err != nil {
			t.Fatalf("loading %s: %v", spec.ID, err)
		}
		got := pad.Module()
		for role, prog := range map[string][]byte{"encode": got.Encode, "decode": got.Decode} {
			if cap(prog) != len(prog) {
				t.Fatalf("%s: %s program cap %d != len %d", spec.ID, role, cap(prog), len(prog))
			}
			_ = append(prog, 0xFF)
		}
		requireIntact(t, spec.ID+" load", g)

		// The CDN origin hands out its stored object itself; deploying
		// from it repeatedly leaves the store as published.
		path := "/pads/" + spec.ID
		if err := origin.Publish(path, packed); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			stored, err := origin.Get(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := loader.Load(stored); err != nil {
				t.Fatalf("loading %s from the origin: %v", spec.ID, err)
			}
		}
		if stored, _ := origin.Get(path); !bytes.Equal(stored, packed) {
			t.Fatalf("%s: origin object changed by Load", spec.ID)
		}
	}
}
