package mobilecode_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"fractal/internal/codec"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
)

// TestEveryOpcodeIsNamedAssembledDispatchedAndVerified pins the
// instruction set: of the 256 opcode bytes, Program.Validate accepts
// exactly HALT, DUPB, SWAPB, DROPB and CALL at their wire values, and each
// of those has a mnemonic, a mnemonic the assembler maps back to it, a
// case in the VM's dispatch switch, and a stack effect in the bytecode
// verifier. An opcode that can be encoded but not executed, assembled or
// verified fails here, and so does one of the removed opcodes coming back.
func TestEveryOpcodeIsNamedAssembledDispatchedAndVerified(t *testing.T) {
	sym := mobilecode.HostFunc{Name: "sym", Arity: 1, Results: 1, Fn: func(_ *mobilecode.Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) { return a, nil }}
	vm, err := mobilecode.NewVM([]mobilecode.HostFunc{sym}, mobilecode.DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	cfg := verify.DeployConfig([]mobilecode.HostFunc{sym}, mobilecode.DefaultSandbox())
	var accepted []int
	for i := 0; i < 256; i++ {
		op := mobilecode.Op(i)
		in := mobilecode.Instr{Op: op}
		if op == mobilecode.OpCall {
			in.Sym = "sym"
		}
		prog := mobilecode.Program{in, {Op: mobilecode.OpHalt}}
		if op == mobilecode.OpHalt {
			prog = prog[1:]
		}
		if prog.Validate() != nil {
			continue
		}
		accepted = append(accepted, i)
		name := op.String()
		if strings.HasPrefix(name, "OP(") {
			t.Errorf("opcode %d has no mnemonic in opNames", i)
		}
		if asm, err := mobilecode.Assemble(mobilecode.Disassemble(prog)); err != nil || asm[0].Op != op {
			t.Errorf("%s: the assembler does not map the mnemonic back to opcode %d (err %v)", name, i, err)
		}
		// Two inputs cover every pop, so a run fails only if dispatch does.
		if _, err := vm.Run(prog, [][]byte{[]byte("a"), []byte("b")}); err != nil {
			t.Errorf("%s: the VM does not run it: %v", name, err)
		}
		if _, err := verify.Program(prog, cfg); errors.Is(err, verify.ErrMalformed) {
			t.Errorf("%s: the verifier has no stack effect: %v", name, err)
		}
	}
	if want := []int{1, 4, 5, 6, 14}; !slices.Equal(accepted, want) {
		t.Fatalf("Validate accepts opcodes %v, want exactly %v", accepted, want)
	}
}
