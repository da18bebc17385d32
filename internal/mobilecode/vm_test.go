package mobilecode

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func testVM(t testing.TB) *VM {
	t.Helper()
	hosts, err := HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(hosts, DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestProgramValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"empty", Program{}},
		{"bad opcode", Program{{Op: opMax}}},
		{"jump out of range", Program{{Op: OpJmp, Arg: 5}, {Op: OpHalt}}},
		{"negative jump", Program{{Op: OpJz, Arg: -1}, {Op: OpHalt}}},
		{"call without symbol", Program{{Op: OpCall}, {Op: OpHalt}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: invalid program validated", c.name)
		}
	}
	good := Program{{Op: OpPush, Arg: 1}, {Op: OpJz, Arg: 0}, {Op: OpHalt}}
	if err := good.Validate(); err != nil {
		t.Errorf("good program rejected: %v", err)
	}
}

func TestProgramBinaryRoundTrip(t *testing.T) {
	p := Program{
		{Op: OpPush, Arg: -42},
		{Op: OpSize},
		{Op: OpLt},
		{Op: OpJz, Arg: 5},
		{Op: OpCall, Sym: "gzip.encode"},
		{Op: OpHalt},
	}
	bin, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalProgram(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != len(p) {
		t.Fatalf("round trip length %d, want %d", len(q), len(p))
	}
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("instruction %d: %+v != %+v", i, q[i], p[i])
		}
	}
}

func TestUnmarshalProgramRejectsCorrupt(t *testing.T) {
	p := Program{{Op: OpPush, Arg: 7}, {Op: OpHalt}}
	bin, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalProgram(bin[:len(bin)-1]); err == nil {
		t.Error("truncated program unmarshalled")
	}
	if _, err := UnmarshalProgram(append(bin, 0)); err == nil {
		t.Error("program with trailing bytes unmarshalled")
	}
	if _, err := UnmarshalProgram(nil); err == nil {
		t.Error("empty data unmarshalled")
	}
	// A count of 2^20 instructions in three bytes is refused before the
	// program is sized from it.
	if _, err := UnmarshalProgram([]byte{0x80, 0x80, 0x40}); err == nil || !strings.Contains(err.Error(), "unreasonable") {
		t.Errorf("hostile instruction count: err = %v, want it refused as unreasonable", err)
	}
}

func TestVMIdentityAndStackOps(t *testing.T) {
	vm := testVM(t)
	// [a, b] -> swap -> [b, a] -> dup -> [b, a, a] -> concat -> [b, aa]
	p := MustAssemble(`
		SWAPB
		DUPB
		CONCATB
		HALT`)
	out, err := vm.Run(p, [][]byte{[]byte("bb"), []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || string(out[0]) != "a" || string(out[1]) != "bbbb" {
		t.Fatalf("stack = %q, want [a bbbb]", out)
	}
}

func TestVMSliceAndSize(t *testing.T) {
	vm := testVM(t)
	p := MustAssemble(`
		PUSH 1
		PUSH 4
		SLICEB
		HALT`)
	out, err := vm.Run(p, [][]byte{[]byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	if string(out[0]) != "bcd" {
		t.Fatalf("slice = %q, want bcd", out[0])
	}
	bad := MustAssemble(`
		PUSH 4
		PUSH 1
		SLICEB
		HALT`)
	if _, err := vm.Run(bad, [][]byte{[]byte("abcdef")}); err == nil {
		t.Fatal("inverted slice bounds accepted")
	}
}

func TestVMConditionalBranch(t *testing.T) {
	vm := testVM(t)
	// If len(input) < 4, return it unchanged, else gzip it.
	src := `
		SIZE
		PUSH 4
		LT
		JZ big
		CALL identity
		HALT
	big:
		CALL gzip.encode
		HALT`
	p := MustAssemble(src)
	small, err := vm.Run(p, [][]byte{[]byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	if string(small[len(small)-1]) != "abc" {
		t.Fatalf("small path = %q, want abc", small[len(small)-1])
	}
	big, err := vm.Run(p, [][]byte{bytes.Repeat([]byte("x"), 100)})
	if err != nil {
		t.Fatal(err)
	}
	if len(big[len(big)-1]) >= 100 {
		t.Fatal("big path did not compress")
	}
}

func TestVMEqAndPop(t *testing.T) {
	vm := testVM(t)
	p := MustAssemble(`
		PUSH 3
		PUSH 3
		EQ
		JZ nope
		PUSH 99
		POP
		CALL identity
		HALT
	nope:
		DROPB
		HALT`)
	out, err := vm.Run(p, [][]byte{[]byte("keep")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || string(out[0]) != "keep" {
		t.Fatalf("EQ path result = %q", out)
	}
}

func TestVMRuntimeErrors(t *testing.T) {
	vm := testVM(t)
	cases := []struct {
		name string
		src  string
		in   [][]byte
	}{
		{"buffer underflow", "DROPB\nDROPB\nHALT", [][]byte{[]byte("x")}},
		{"int underflow", "POP\nHALT", nil},
		{"unknown host fn", "CALL no.such.fn\nHALT", [][]byte{[]byte("x")}},
		{"host arity underflow", "CALL bitmap.encode\nHALT", [][]byte{[]byte("x")}},
		{"no halt", "NOP", nil},
		{"swap underflow", "SWAPB\nHALT", [][]byte{[]byte("x")}},
	}
	for _, c := range cases {
		p, err := Assemble(c.src)
		if err != nil {
			t.Fatalf("%s: assemble: %v", c.name, err)
		}
		if _, err := vm.Run(p, c.in); err == nil {
			t.Errorf("%s: run succeeded, want error", c.name)
		}
	}
}

func TestSandboxInstructionBudget(t *testing.T) {
	hosts, err := HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(hosts, Sandbox{MaxInstructions: 100, MaxBufferBytes: 1 << 20, MaxStackDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	loop := MustAssemble(`
	top:
		NOP
		JMP top`)
	_, err = vm.Run(loop, nil)
	if !errors.Is(err, ErrInstructionBudget) {
		t.Fatalf("infinite loop error = %v, want instruction budget", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %T does not unwrap to RunError", err)
	}
}

func TestSandboxMemoryBudget(t *testing.T) {
	hosts, err := HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(hosts, Sandbox{MaxInstructions: 1 << 20, MaxBufferBytes: 1024, MaxStackDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Repeated self-concatenation doubles the buffer until the budget trips.
	bomb := MustAssemble(`
	top:
		DUPB
		CONCATB
		JMP top`)
	_, err = vm.Run(bomb, [][]byte{[]byte("xxxxxxxx")})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("memory bomb error = %v, want memory budget", err)
	}
}

func TestSandboxStackDepth(t *testing.T) {
	hosts, err := HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(hosts, Sandbox{MaxInstructions: 1 << 20, MaxBufferBytes: 1 << 20, MaxStackDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	deep := MustAssemble(`
	top:
		DUPB
		JMP top`)
	_, err = vm.Run(deep, [][]byte{[]byte("x")})
	if !errors.Is(err, ErrStackDepth) {
		t.Fatalf("deep stack error = %v, want stack depth", err)
	}
}

func TestSandboxValidation(t *testing.T) {
	hosts, _ := HostTable(nil)
	for _, sb := range []Sandbox{
		{},
		{MaxInstructions: 1, MaxBufferBytes: 1},
		{MaxInstructions: 1, MaxStackDepth: 1},
	} {
		if _, err := NewVM(hosts, sb); err == nil {
			t.Errorf("sandbox %+v accepted", sb)
		}
	}
}

func TestNewVMRejectsBadHostTables(t *testing.T) {
	ok := HostFunc{Name: "f", Arity: 1, Fn: func(a [][]byte) ([][]byte, error) { return a, nil }}
	if _, err := NewVM([]HostFunc{ok, ok}, DefaultSandbox()); err == nil {
		t.Error("duplicate host fn accepted")
	}
	if _, err := NewVM([]HostFunc{{Name: "", Arity: 1, Fn: ok.Fn}}, DefaultSandbox()); err == nil {
		t.Error("anonymous host fn accepted")
	}
	if _, err := NewVM([]HostFunc{{Name: "g", Arity: 1}}, DefaultSandbox()); err == nil {
		t.Error("nil host fn accepted")
	}
}

func TestVMInputIsolation(t *testing.T) {
	vm := testVM(t)
	in := []byte("immutable")
	p := MustAssemble(`
		PUSH 0
		PUSH 2
		SLICEB
		HALT`)
	if _, err := vm.Run(p, [][]byte{in}); err != nil {
		t.Fatal(err)
	}
	if string(in) != "immutable" {
		t.Fatal("VM modified caller's input slice")
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"FROB",                    // unknown mnemonic
		"PUSH",                    // missing operand
		"PUSH abc",                // non-integer
		"JZ nowhere\nHALT",        // undefined label
		"x:\nx:\nHALT",            // duplicate label
		"HALT extra",              // stray operand
		"CALL",                    // missing symbol
		"PUSH 1 2\nHALT",          // too many operands
		"bad label:\nHALT",        // label with space
		"JMP\nHALT",               // jump without label
		"",                        // empty program
		"; only a comment\n\n\t ", // still empty
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := `
		SIZE
		PUSH 64
		LT
		JZ big
		CALL identity
		HALT
	big:
		CALL gzip.encode
		HALT`
	p := MustAssemble(src)
	p2, err := Assemble(Disassemble(p))
	if err != nil {
		t.Fatalf("reassembling disassembly: %v", err)
	}
	if len(p2) != len(p) {
		t.Fatalf("round trip %d instructions, want %d", len(p2), len(p))
	}
	for i := range p {
		if p[i] != p2[i] {
			t.Fatalf("instruction %d: %+v != %+v", i, p2[i], p[i])
		}
	}
}

// Property: program binary round trip is exact for arbitrary generated
// valid programs.
func TestProgramBinaryRoundTripProperty(t *testing.T) {
	f := func(pushes []int64, callGzip bool) bool {
		p := Program{}
		for _, v := range pushes {
			p = append(p, Instr{Op: OpPush, Arg: v})
		}
		if callGzip {
			p = append(p, Instr{Op: OpCall, Sym: "gzip.encode"})
		}
		p = append(p, Instr{Op: OpHalt})
		bin, err := p.MarshalBinary()
		if err != nil {
			return false
		}
		q, err := UnmarshalProgram(bin)
		if err != nil || len(q) != len(p) {
			return false
		}
		for i := range p {
			if p[i] != q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
