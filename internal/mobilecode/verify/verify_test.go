package verify

import (
	"errors"
	"strings"
	"testing"

	"fractal/internal/mobilecode"
)

// deployCfg is the standard test policy: the full builtin host table, a
// small sandbox, and the PAD calling convention.
func deployCfg(t *testing.T, sb mobilecode.Sandbox) Config {
	t.Helper()
	hosts, err := mobilecode.HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	return DeployConfig(hosts, sb)
}

func smallSandbox() mobilecode.Sandbox {
	return mobilecode.Sandbox{MaxBufferBytes: 1 << 20, MaxStackDepth: 8}
}

// proof is one program's verified summary: its exact cost, its
// buffer-stack bound and the host symbols it resolves.
type proof struct {
	instr, bufs int
	calls       string
}

// TestBuiltinModulesVerify verifies every builtin PAD module under the
// default sandbox and pins each program's proof: one CALL and a HALT, or
// cascade's two CALLs, never more than two buffers deep.
func TestBuiltinModulesVerify(t *testing.T) {
	want := map[string][2]proof{
		"pad-direct":  {{2, 2, "identity"}, {2, 2, "identity"}},
		"pad-gzip":    {{2, 2, "gzip.encode"}, {2, 2, "gzip.decode"}},
		"pad-bitmap":  {{2, 2, "bitmap.encode"}, {2, 2, "bitmap.decode"}},
		"pad-vary":    {{2, 2, "vary.encode"}, {2, 2, "vary.decode"}},
		"pad-rsync":   {{2, 2, "rsync.encode"}, {2, 2, "rsync.decode"}},
		"pad-cascade": {{3, 2, "gzip.encode,vary.encode"}, {3, 2, "gzip.decode,vary.decode"}},
		"pad-full":    {{2, 2, "identity"}, {2, 2, "identity"}},
		"pad-thumb":   {{2, 2, "identity"}, {2, 2, "identity"}},
	}
	signer, err := mobilecode.NewSigner("test-op")
	if err != nil {
		t.Fatal(err)
	}
	specs := mobilecode.BuiltinSpecs()
	specs = append(specs, mobilecode.RsyncSpec(), mobilecode.CascadeSpec())
	specs = append(specs, mobilecode.TranscoderSpecs()...)
	if len(specs) != len(want) {
		t.Fatalf("%d builtin modules, want one proof per module (%d)", len(specs), len(want))
	}
	for _, spec := range specs {
		m, err := mobilecode.BuildModule(spec, "1.0", signer)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		rep, err := Module(m, mobilecode.DefaultSandbox())
		if err != nil {
			t.Fatalf("%s: builtin PAD rejected: %v", spec.ID, err)
		}
		w, ok := want[spec.ID]
		if !ok {
			t.Errorf("%s: no pinned proof", spec.ID)
			continue
		}
		for i, c := range []struct {
			role string
			r    *Report
			src  string
		}{{"encode", rep.Encode, spec.EncodeSrc}, {"decode", rep.Decode, spec.DecodeSrc}} {
			p, err := mobilecode.Assemble(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if c.r.Instructions != len(p) {
				t.Errorf("%s %s: cost %d, want the program length %d", spec.ID, c.role, c.r.Instructions, len(p))
			}
			got := proof{c.r.Instructions, c.r.MaxBufDepth, strings.Join(c.r.Calls, ",")}
			if got != w[i] {
				t.Errorf("%s %s: proof %+v, want %+v", spec.ID, c.role, got, w[i])
			}
		}
	}
}

func TestCraftedBadProgramsRejectedWithTypedErrors(t *testing.T) {
	I := func(op mobilecode.Op) mobilecode.Instr { return mobilecode.Instr{Op: op} }
	// Ops removed from the language, at their old wire values: programs
	// that used them fail Validate, so the verifier refuses them as
	// malformed before it looks at a stack height.
	const (
		nop  mobilecode.Op = 0
		push mobilecode.Op = 2
		pop  mobilecode.Op = 3
		eq   mobilecode.Op = 11
		jmp  mobilecode.Op = 12
		jz   mobilecode.Op = 13
	)
	cases := []struct {
		name   string
		prog   mobilecode.Program
		kind   error
		wantPC int
	}{
		{
			name:   "int underflow",
			prog:   mobilecode.Program{I(pop), I(mobilecode.OpHalt)},
			kind:   ErrMalformed,
			wantPC: -1,
		},
		{
			name:   "int underflow on a join path",
			prog:   mobilecode.Program{I(push), I(jz), I(push), I(push), I(eq), I(mobilecode.OpHalt)},
			kind:   ErrMalformed,
			wantPC: -1,
		},
		{
			name: "buffer underflow",
			prog: mobilecode.Program{
				I(mobilecode.OpDropB), I(mobilecode.OpDropB),
				I(mobilecode.OpDropB), I(mobilecode.OpHalt),
			},
			kind:   ErrBufUnderflow,
			wantPC: 2,
		},
		{
			name: "undeclared CALL",
			prog: mobilecode.Program{
				{Op: mobilecode.OpCall, Sym: "evil.exfiltrate"},
				I(mobilecode.OpHalt),
			},
			kind:   ErrUndeclaredCall,
			wantPC: 0,
		},
		{
			name: "dead code",
			// Nothing after the first HALT ever runs.
			prog: mobilecode.Program{
				I(mobilecode.OpHalt),
				I(mobilecode.OpDropB),
				I(mobilecode.OpHalt),
			},
			kind:   ErrDeadCode,
			wantPC: 1,
		},
		{
			name:   "unbounded loop",
			prog:   mobilecode.Program{I(push), I(jz), I(jmp), I(mobilecode.OpHalt)},
			kind:   ErrMalformed,
			wantPC: -1,
		},
		{
			name:   "no reachable HALT",
			prog:   mobilecode.Program{I(jmp), I(jmp)},
			kind:   ErrMalformed,
			wantPC: -1,
		},
		{
			name:   "falls off the end",
			prog:   mobilecode.Program{{Op: mobilecode.OpCall, Sym: "identity"}},
			kind:   ErrMalformed,
			wantPC: -1,
		},
		{
			name: "halts without a result",
			prog: mobilecode.Program{
				I(mobilecode.OpDropB), I(mobilecode.OpDropB), I(mobilecode.OpHalt),
			},
			kind:   ErrNoResult,
			wantPC: 2,
		},
		{
			name: "stack depth",
			prog: mobilecode.Program{
				I(mobilecode.OpDupB), I(mobilecode.OpDupB), I(mobilecode.OpDupB),
				I(mobilecode.OpDupB), I(mobilecode.OpDupB), I(mobilecode.OpDupB),
				I(mobilecode.OpDupB), I(mobilecode.OpHalt),
			},
			kind:   ErrStackDepth,
			wantPC: 6,
		},
		{
			name:   "cost over budget",
			prog:   mobilecode.Program{I(nop), I(nop), I(nop), I(nop), I(mobilecode.OpHalt)},
			kind:   ErrMalformed,
			wantPC: -1,
		},
		{
			name:   "loop under a loop-free policy",
			prog:   mobilecode.Program{I(push), I(jz), I(mobilecode.OpHalt)},
			kind:   ErrMalformed,
			wantPC: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Program(tc.prog, deployCfg(t, smallSandbox()))
			if err == nil {
				t.Fatal("verifier accepted the program")
			}
			var verr *Error
			if !errors.As(err, &verr) {
				t.Fatalf("rejection is not a *verify.Error: %v", err)
			}
			if !errors.Is(err, tc.kind) {
				t.Fatalf("kind = %v, want %v (full: %v)", verr.Kind, tc.kind, err)
			}
			if verr.PC != tc.wantPC {
				t.Fatalf("rejection names instruction %d, want %d (full: %v)", verr.PC, tc.wantPC, err)
			}
			if verr.PC >= 0 && verr.Op != tc.prog[verr.PC].Op {
				t.Fatalf("rejection names op %s, instruction %d is %s", verr.Op, verr.PC, tc.prog[verr.PC].Op)
			}
		})
	}
}

func TestReportBoundsMatchStraightLine(t *testing.T) {
	p, err := mobilecode.Assemble(`
		CALL vary.encode
		CALL gzip.encode
		HALT`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Program(p, deployCfg(t, smallSandbox()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instructions != 3 {
		t.Fatalf("cost = %d instructions, want 3", rep.Instructions)
	}
	if rep.MaxBufDepth != 2 {
		t.Fatalf("buffer depth bound = %d, want 2", rep.MaxBufDepth)
	}
	if len(rep.Calls) != 2 {
		t.Fatalf("calls = %v, want the two primitives", rep.Calls)
	}
}

func TestLoaderVerifierGatesDeployment(t *testing.T) {
	signer, err := mobilecode.NewSigner("test-op")
	if err != nil {
		t.Fatal(err)
	}
	// A properly signed module whose decode program calls outside the
	// manifest: provenance fine, safety not.
	enc, err := mobilecode.Assemble("CALL identity\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := mobilecode.Assemble("CALL backdoor.fetch\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	encBin, err := enc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decBin, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m, err := mobilecode.NewModule("pad-evil", "1.0", mobilecode.Payload{
		Protocol: "direct", Encode: encBin, Decode: decBin,
	}, signer)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	trust := mobilecode.NewTrustList()
	if err := trust.Add(signer.Entity, signer.PublicKey()); err != nil {
		t.Fatal(err)
	}
	loader, err := mobilecode.NewLoader(trust, mobilecode.DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	// Without the verifier the historical pipeline accepts it (the fault
	// would only surface at run time).
	if _, err := loader.Load(packed); err != nil {
		t.Fatalf("digest+signature pipeline rejected the module: %v", err)
	}
	loader.SetVerifier(LoaderVerifier())
	_, err = loader.Load(packed)
	if err == nil {
		t.Fatal("verifier-armed loader deployed a module with an undeclared CALL")
	}
	var verr *Error
	if !errors.As(err, &verr) || !errors.Is(err, ErrUndeclaredCall) {
		t.Fatalf("rejection not typed as an undeclared call: %v", err)
	}
	if !strings.Contains(err.Error(), "backdoor.fetch") {
		t.Errorf("rejection does not name the undeclared capability: %v", err)
	}
}
