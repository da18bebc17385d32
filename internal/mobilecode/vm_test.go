package mobilecode

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"fractal/internal/codec"
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
		{"zero opcode", Program{{Op: 0}, {Op: OpHalt}}},
		{"removed opcode", Program{{Op: 13}, {Op: OpHalt}}},
		{"opcode past CALL", Program{{Op: OpCall + 1}, {Op: OpHalt}}},
		{"call without symbol", Program{{Op: OpCall}, {Op: OpHalt}}},
		{"symbol on a non-CALL", Program{{Op: OpDupB, Sym: "identity"}, {Op: OpHalt}}},
		{"no HALT last", Program{{Op: OpHalt}, {Op: OpCall, Sym: "identity"}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: invalid program validated", c.name)
		}
	}
	good := Program{{Op: OpDupB}, {Op: OpCall, Sym: "identity"}, {Op: OpHalt}}
	if err := good.Validate(); err != nil {
		t.Errorf("good program rejected: %v", err)
	}
}

func TestProgramBinaryRoundTrip(t *testing.T) {
	p := Program{
		{Op: OpDupB},
		{Op: OpSwapB},
		{Op: OpDropB},
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
	p := Program{{Op: OpCall, Sym: "identity"}, {Op: OpHalt}}
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
	// Each instruction is opcode, varint immediate, symbol: the encoding
	// still carries the immediate the removed opcodes used, so a module
	// built for the larger language decodes far enough to be refused.
	for _, c := range []struct {
		name string
		bin  []byte
	}{
		{"PUSH 1", []byte{2, 2, 2, 0, 1, 0, 0}},
		{"JZ 1", []byte{2, 13, 2, 0, 1, 0, 0}},
		{"immediate on HALT", []byte{1, 1, 2, 0}},
		{"symbol on HALT", []byte{1, 1, 0, 1, 'x'}},
		{"no HALT last", []byte{1, 4, 0, 0}},
	} {
		if _, err := UnmarshalProgram(c.bin); err == nil {
			t.Errorf("%s: unmarshalled", c.name)
		}
	}
}

func TestVMIdentityAndStackOps(t *testing.T) {
	vm := testVM(t)
	// [bb, a] -> swap -> [a, bb] -> dup -> [a, bb, bb] -> drop -> [a, bb]
	// -> identity -> [a, bb]
	p := MustAssemble(`
		SWAPB
		DUPB
		DROPB
		CALL identity
		HALT`)
	out, err := vm.Run(p, [][]byte{[]byte("bb"), []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || string(out[0]) != "a" || string(out[1]) != "bb" {
		t.Fatalf("stack = %q, want [a bb]", out)
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
		{"dup of an empty stack", "DUPB\nHALT", nil},
		{"unknown host fn", "CALL no.such.fn\nHALT", [][]byte{[]byte("x")}},
		{"host arity underflow", "CALL bitmap.encode\nHALT", [][]byte{[]byte("x")}},
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

func TestSandboxMemoryBudget(t *testing.T) {
	hosts, err := HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(hosts, Sandbox{MaxBufferBytes: 1024, MaxStackDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Each duplicate is charged in full, so the third reference to 400
	// bytes trips a 1024-byte budget.
	bomb := MustAssemble(`
		DUPB
		DUPB
		HALT`)
	_, err = vm.Run(bomb, [][]byte{make([]byte, 400)})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("memory bomb error = %v, want memory budget", err)
	}
}

func TestSandboxStackDepth(t *testing.T) {
	hosts, err := HostTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(hosts, Sandbox{MaxBufferBytes: 1 << 20, MaxStackDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	deep := MustAssemble(`
		DUPB
		DUPB
		DUPB
		DUPB
		HALT`)
	_, err = vm.Run(deep, [][]byte{[]byte("x")})
	if !errors.Is(err, ErrStackDepth) {
		t.Fatalf("deep stack error = %v, want stack depth", err)
	}
}

func TestSandboxValidation(t *testing.T) {
	hosts, _ := HostTable(nil)
	for _, sb := range []Sandbox{
		{},
		{MaxBufferBytes: 1},
		{MaxStackDepth: 1},
	} {
		if _, err := NewVM(hosts, sb); err == nil {
			t.Errorf("sandbox %+v accepted", sb)
		}
	}
}

func TestNewVMRejectsBadHostTables(t *testing.T) {
	ok := HostFunc{Name: "f", Arity: 1, Results: 1, Fn: func(_ *Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) { return a, nil }}
	if _, err := NewVM([]HostFunc{ok, ok}, DefaultSandbox()); err == nil {
		t.Error("duplicate host fn accepted")
	}
	if _, err := NewVM([]HostFunc{{Name: "", Arity: 1, Fn: ok.Fn}}, DefaultSandbox()); err == nil {
		t.Error("anonymous host fn accepted")
	}
	if _, err := NewVM([]HostFunc{{Name: "g", Arity: 1, Results: 1}}, DefaultSandbox()); err == nil {
		t.Error("nil host fn accepted")
	}
	if _, err := NewVM([]HostFunc{{Name: "h", Arity: 1, Fn: ok.Fn}}, DefaultSandbox()); err == nil {
		t.Error("host fn without a declared result count accepted")
	}
}

func TestVMInputIsolation(t *testing.T) {
	vm := testVM(t)
	in := []byte("immutable")
	p := MustAssemble(`
		DUPB
		CALL gzip.encode
		SWAPB
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
		"PUSH 1\nHALT",            // a removed opcode
		"JZ done\ndone:\nHALT",    // jumps and labels are gone
		"HALT extra",              // stray operand
		"CALL",                    // missing symbol
		"CALL a b\nHALT",          // too many operands
		"CALL identity",           // no HALT last
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
		SWAPB            ; [cur, old]
		DUPB
		DROPB
		SWAPB            ; [old, cur]
		call vary.encode ; mnemonics are case-insensitive
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
	shuffles := []Op{OpDupB, OpSwapB, OpDropB}
	f := func(ops []uint8, callGzip bool) bool {
		p := Program{}
		for _, o := range ops {
			p = append(p, Instr{Op: shuffles[int(o)%len(shuffles)]})
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
