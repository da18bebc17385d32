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

// programFromBytes decodes an arbitrary byte string into a structurally
// valid Program (jump targets in range, CALLs with symbols), so the
// verifier — not Validate — decides acceptance.
func programFromBytes(data []byte) mobilecode.Program {
	n := len(data) / 3
	if n == 0 {
		return nil
	}
	if n > 48 {
		n = 48
	}
	allOps := []mobilecode.Op{
		mobilecode.OpNop, mobilecode.OpHalt, mobilecode.OpPush, mobilecode.OpPop,
		mobilecode.OpDupB, mobilecode.OpSwapB, mobilecode.OpDropB, mobilecode.OpSize,
		mobilecode.OpConcatB, mobilecode.OpSliceB, mobilecode.OpLt, mobilecode.OpEq,
		mobilecode.OpJmp, mobilecode.OpJz, mobilecode.OpCall,
	}
	p := make(mobilecode.Program, n)
	for i := 0; i < n; i++ {
		b0, b1, b2 := data[i*3], data[i*3+1], data[i*3+2]
		in := mobilecode.Instr{Op: allOps[int(b0)%len(allOps)]}
		switch in.Op {
		case mobilecode.OpPush:
			in.Arg = int64(int8(b1))
		case mobilecode.OpJmp, mobilecode.OpJz:
			in.Arg = int64((int(b1) | int(b2)<<8) % n)
		case mobilecode.OpCall:
			in.Sym = fuzzSyms[int(b1)%len(fuzzSyms)]
		}
		p[i] = in
	}
	return p
}

// staticFaults are the runtime failure classes the verifier claims to
// prove absent in accepted programs.
var staticFaults = []error{
	mobilecode.ErrIntUnderflow,
	mobilecode.ErrBufUnderflow,
	mobilecode.ErrUnknownHost,
	mobilecode.ErrPCRange,
	mobilecode.ErrStackDepth,
}

// checkSoundness is the differential oracle: if the verifier accepts the
// program it must run to completion or fail only with a data-dependent
// error; any static-class fault is a verifier soundness bug.
func checkSoundness(t *testing.T, data []byte) {
	t.Helper()
	p := programFromBytes(data)
	if p == nil {
		return
	}
	sb := mobilecode.Sandbox{MaxInstructions: 1 << 12, MaxBufferBytes: 1 << 20, MaxStackDepth: 6}
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
		if rep.ExactCost && errors.Is(err, mobilecode.ErrInstructionBudget) {
			t.Fatalf("exact cost bound %d yet the budget tripped: %v\nprogram: %v", rep.MaxCost, err, p)
		}
		return
	}
	if len(out) < 1 {
		t.Fatalf("accepted program halted with %d result buffers\nprogram: %v", len(out), p)
	}
}

func FuzzVerifierSoundness(f *testing.F) {
	// Seed with the builtin PAD programs re-encoded into generator bytes is
	// impractical (the mapping is lossy), so seed the generator's corners
	// instead: every opcode, jumps forward and back, calls in and outside
	// the manifest.
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{14, 0, 0, 1, 0, 0})
	f.Add([]byte{14, 7, 0, 1, 0, 0})
	f.Add([]byte{2, 200, 0, 13, 0, 0, 1, 0, 0})
	f.Add([]byte{12, 2, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{4, 0, 0, 8, 0, 0, 9, 0, 0, 1, 0, 0})
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
	buf := make([]byte, 48*3)
	for i := 0; i < 4000; i++ {
		n := 3 * (1 + rng.Intn(48))
		data := buf[:n]
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		checkSoundness(t, data)
	}
}

// TestMutatedBuiltinsSoundness mutates the real builtin PAD programs —
// opcode flips, argument tweaks, instruction swaps — and checks the same
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
	sb := mobilecode.Sandbox{MaxInstructions: 1 << 12, MaxBufferBytes: 1 << 20, MaxStackDepth: 6}
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
			switch rng.Intn(4) {
			case 0:
				p[j].Op = mobilecode.Op(rng.Intn(15))
			case 1:
				p[j].Arg = int64(rng.Intn(len(p)))
			case 2:
				p[j].Sym = fuzzSyms[rng.Intn(len(fuzzSyms))]
			case 3:
				p = append(p[:j:j], append(mobilecode.Program{{Op: mobilecode.Op(rng.Intn(15)), Arg: int64(rng.Intn(len(p)))}}, p[j:]...)...)
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
