package verify

import (
	"errors"
	"math/rand"
	"testing"

	"fractal/internal/mobilecode"
)

// fuzzSyms mixes declared primitives with symbols outside the manifest, so
// generated programs exercise both capability resolution outcomes.
var fuzzSyms = []string{
	"identity", "gzip.encode", "gzip.decode",
	"bitmap.encode", "bitmap.decode", "vary.encode", "vary.decode",
	"evil.exfiltrate", "fs.read",
}

// allOps is the whole language.
var allOps = []mobilecode.Op{
	mobilecode.OpHalt, mobilecode.OpDupB, mobilecode.OpSwapB, mobilecode.OpDropB, mobilecode.OpCall,
}

// programFromBytes decodes an arbitrary byte string into a structurally
// valid Program — two bytes per instruction, a CALL's symbol from the
// second, and a HALT appended — so the verifier, not Validate, decides
// acceptance. A HALT drawn for the body is dead code the verifier must
// refuse.
func programFromBytes(data []byte) mobilecode.Program {
	n := min(len(data)/2, 48)
	p := make(mobilecode.Program, n, n+1)
	for i := range p {
		p[i].Op = allOps[int(data[2*i])%len(allOps)]
		if p[i].Op == mobilecode.OpCall {
			p[i].Sym = fuzzSyms[int(data[2*i+1])%len(fuzzSyms)]
		}
	}
	return append(p, mobilecode.Instr{Op: mobilecode.OpHalt})
}

// staticFaults are the runtime failure classes the verifier claims to
// prove absent in accepted programs.
var staticFaults = []error{
	mobilecode.ErrBufUnderflow,
	mobilecode.ErrUnknownHost,
	mobilecode.ErrStackDepth,
}

// checkSoundness is the differential oracle: if the verifier accepts the
// program it must run to completion or fail only with a data-dependent
// error; any static-class fault is a verifier soundness bug.
func checkSoundness(t *testing.T, data []byte) {
	t.Helper()
	p := programFromBytes(data)
	sb := mobilecode.Sandbox{MaxBufferBytes: 1 << 20, MaxStackDepth: 6}
	hosts, err := mobilecode.HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, verr := Program(p, DeployConfig(hosts, sb))
	if verr != nil {
		// Every rejection must be typed and name an instruction (or be
		// explicitly program-wide).
		var e *Error
		if !errors.As(verr, &e) {
			t.Fatalf("untyped rejection: %v", verr)
		}
		if e.PC >= len(p) {
			t.Fatalf("rejection names instruction %d of %d: %v", e.PC, len(p), verr)
		}
		return
	}
	vm, err := mobilecode.NewVM(hosts, sb)
	if err != nil {
		t.Fatal(err)
	}
	out, err := vm.Run(p, [][]byte{[]byte("held old version"), []byte("current version bytes")})
	if err != nil {
		for _, fault := range staticFaults {
			if errors.Is(err, fault) {
				t.Fatalf("verifier-accepted program faulted statically: %v\nprogram: %v", err, p)
			}
		}
		return
	}
	if len(out) < MinResults || len(out) > rep.MaxBufDepth {
		t.Fatalf("accepted program halted with %d result buffers, proved %d..%d\nprogram: %v", len(out), MinResults, rep.MaxBufDepth, p)
	}
}

func FuzzVerifierSoundness(f *testing.F) {
	// Seed the generator's corners (op bytes index allOps, symbol bytes
	// fuzzSyms): the bare HALT, a call in and one outside the manifest,
	// the cascade decoder, a dead HALT, and every shuffle.
	f.Add([]byte{})
	f.Add([]byte{4, 0})
	f.Add([]byte{4, 7})
	f.Add([]byte{4, 2, 4, 6})
	f.Add([]byte{0, 0, 4, 0})
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSoundness(t, data)
	})
}

// TestRandomDifferentialSoundness gives the soundness contract real
// coverage on every plain `go test` run (the fuzz target above only
// explores under -fuzz): thousands of seeded-random programs through
// verifier and VM.
func TestRandomDifferentialSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Short programs: every interior HALT is dead code, so few long
	// random ones pass the verifier.
	buf := make([]byte, 16*2)
	for i := 0; i < 4000; i++ {
		n := 2 * (1 + rng.Intn(16))
		data := buf[:n]
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		checkSoundness(t, data)
	}
}

// TestMutatedBuiltinsSoundness mutates the real builtin PAD programs —
// opcode flips, symbol swaps, inserted instructions — and checks the same
// contract: whatever the verifier still accepts must not fault statically.
func TestMutatedBuiltinsSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var seeds []mobilecode.Program
	specs := mobilecode.BuiltinSpecs()
	specs = append(specs, mobilecode.CascadeSpec(), mobilecode.RsyncSpec())
	for _, spec := range specs {
		for _, src := range []string{spec.EncodeSrc, spec.DecodeSrc} {
			p, err := mobilecode.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, p)
		}
	}
	sb := mobilecode.Sandbox{MaxBufferBytes: 1 << 20, MaxStackDepth: 6}
	hosts, err := mobilecode.HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DeployConfig(hosts, sb)
	vm, err := mobilecode.NewVM(hosts, sb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		seed := seeds[rng.Intn(len(seeds))]
		p := append(mobilecode.Program(nil), seed...)
		for k := 0; k <= rng.Intn(3); k++ {
			j := rng.Intn(len(p))
			switch rng.Intn(3) {
			case 0:
				p[j].Op = allOps[rng.Intn(len(allOps))]
			case 1:
				p[j].Sym = fuzzSyms[rng.Intn(len(fuzzSyms))]
			case 2:
				p = append(p[:j:j], append(mobilecode.Program{{Op: allOps[rng.Intn(len(allOps))]}}, p[j:]...)...)
			}
		}
		if p.Validate() != nil {
			continue // structurally broken mutants are Validate's business
		}
		if _, err := Program(p, cfg); err != nil {
			continue
		}
		if _, err := vm.Run(p, [][]byte{[]byte("old"), []byte("cur")}); err != nil {
			for _, fault := range staticFaults {
				if errors.Is(err, fault) {
					t.Fatalf("accepted mutant faulted statically: %v\nprogram: %v", err, p)
				}
			}
		}
	}
}
