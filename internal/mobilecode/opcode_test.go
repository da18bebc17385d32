package mobilecode_test

import (
	"errors"
	"strings"
	"testing"

	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
)

// TestEveryOpcodeIsNamedAssembledDispatchedAndVerified pins the
// completeness of the instruction set: every opcode Program.Validate
// accepts — Op(0) up to the unexported bound opMax — has a mnemonic in
// opNames, a mnemonic the assembler maps back to it, a case in the VM's
// dispatch switch, and a stack effect in the bytecode verifier. An opcode
// that can be encoded but not executed, assembled or verified fails here.
func TestEveryOpcodeIsNamedAssembledDispatchedAndVerified(t *testing.T) {
	vm, err := mobilecode.NewVM(nil, mobilecode.Sandbox{MaxInstructions: 8, MaxBufferBytes: 1 << 10, MaxStackDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := verify.Config{
		Caps:       verify.CapSet{"sym": {Arity: 1, Results: 1}},
		Sandbox:    mobilecode.DefaultSandbox(),
		Inputs:     2,
		AllowLoops: true,
	}
	ops := 0
	for i := 0; i < 256; i++ {
		op := mobilecode.Op(i)
		// Every operand is set, so each opcode finds the one it takes: a
		// jump's target (instruction 0 here, 1 below) and a call's symbol.
		if (mobilecode.Program{{Op: op, Sym: "sym"}}).Validate() != nil {
			break // op is opMax, one past the instruction set
		}
		ops++
		name := op.String()
		if strings.HasPrefix(name, "OP(") {
			t.Errorf("opcode %d has no mnemonic in opNames", i)
		}
		prog := mobilecode.Program{{Op: op, Arg: 1, Sym: "sym"}, {Op: mobilecode.OpHalt}}
		if asm, err := mobilecode.Assemble(mobilecode.Disassemble(prog)); err != nil || asm[0].Op != op {
			t.Errorf("%s: the assembler does not map the mnemonic back to opcode %d (err %v)", name, i, err)
		}
		// Stack underflow, an unknown host or an exhausted budget is fine:
		// only a missing dispatch case reports an unknown opcode.
		if _, err := vm.Run(mobilecode.Program{{Op: op, Sym: "sym"}}, nil); err != nil && strings.Contains(err.Error(), "unknown opcode") {
			t.Errorf("%s: the VM has no dispatch case: %v", name, err)
		}
		if _, err := verify.Program(prog, cfg); errors.Is(err, verify.ErrMalformed) {
			t.Errorf("%s: the verifier has no stack effect: %v", name, err)
		}
	}
	if ops < int(mobilecode.OpCall)+1 {
		t.Fatalf("Validate accepted only %d opcodes; OpCall is %d", ops, mobilecode.OpCall)
	}
}
