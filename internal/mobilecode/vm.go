// Package mobilecode is Fractal's mobile-code substrate. The paper ships
// protocol adaptors (PADs) as Java class objects loaded by the JVM; Go has
// no runtime code loading, so a PAD here is a signed, digest-protected
// module whose payload is a program for a small buffer-stack virtual
// machine. The VM preserves the property the framework needs — a client
// can download, verify, and *execute* protocol logic it did not ship with —
// including the paper's security mechanisms (Section 3.5): SHA-1 message
// digests, code signing against a trust list, and a sandbox that bounds
// the instructions, memory, and buffers a PAD may consume.
package mobilecode

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op is a VM opcode. The machine has two stacks: a buffer stack of byte
// slices (the data being transformed) and an integer stack (control
// values). Host calls invoke named primitives registered by the embedder.
// Buffers are immutable values: no instruction writes the bytes of one, so
// the stack, the caller's inputs and the results may share storage freely.
type Op uint8

// The instruction set.
const (
	OpNop     Op = iota // no effect
	OpHalt              // stop successfully
	OpPush              // push immediate onto the int stack
	OpPop               // discard top of int stack
	OpDupB              // duplicate top buffer (a second reference, no copy)
	OpSwapB             // swap top two buffers
	OpDropB             // drop top buffer
	OpSize              // push len(top buffer) onto int stack
	OpConcatB           // pop two buffers, push their concatenation (a new buffer)
	OpSliceB            // pop end, start ints; replace top buffer by that window of it
	OpLt                // pop b, a; push 1 if a < b else 0
	OpEq                // pop b, a; push 1 if a == b else 0
	OpJmp               // jump to absolute instruction index (immediate)
	OpJz                // pop int; jump to immediate index if it is zero
	OpCall              // invoke host function named by the symbol
	opMax
)

var opNames = map[Op]string{
	OpNop: "NOP", OpHalt: "HALT", OpPush: "PUSH", OpPop: "POP",
	OpDupB: "DUPB", OpSwapB: "SWAPB", OpDropB: "DROPB", OpSize: "SIZE",
	OpConcatB: "CONCATB", OpSliceB: "SLICEB", OpLt: "LT", OpEq: "EQ",
	OpJmp: "JMP", OpJz: "JZ", OpCall: "CALL",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Instr is one VM instruction. Arg is the immediate for OpPush/OpJmp/OpJz;
// Sym is the host-function name for OpCall.
type Instr struct {
	Op  Op
	Arg int64
	Sym string
}

// Program is an executable instruction sequence.
type Program []Instr

// Validate performs static checks: known opcodes, jump targets inside the
// program, and non-empty call symbols. A valid program can still fail at
// run time (stack underflow, unknown host function, budget exhaustion) —
// those are sandbox matters.
func (p Program) Validate() error {
	if len(p) == 0 {
		return errors.New("mobilecode: empty program")
	}
	for i, in := range p {
		if in.Op >= opMax {
			return fmt.Errorf("mobilecode: instruction %d: unknown opcode %d", i, in.Op)
		}
		switch in.Op {
		case OpJmp, OpJz:
			if in.Arg < 0 || in.Arg >= int64(len(p)) {
				return fmt.Errorf("mobilecode: instruction %d: jump target %d outside program of %d instructions", i, in.Arg, len(p))
			}
		case OpCall:
			if in.Sym == "" {
				return fmt.Errorf("mobilecode: instruction %d: CALL without symbol", i)
			}
		}
	}
	return nil
}

// MarshalBinary encodes the program for transport inside a PAD payload.
func (p Program) MarshalBinary() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(p)))]...)
	for _, in := range p {
		out = append(out, byte(in.Op))
		out = append(out, tmp[:binary.PutVarint(tmp[:], in.Arg)]...)
		out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(in.Sym)))]...)
		out = append(out, in.Sym...)
	}
	return out, nil
}

// UnmarshalProgram decodes a program encoded by MarshalBinary and
// validates it.
func UnmarshalProgram(data []byte) (Program, error) {
	pos := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, errors.New("mobilecode: truncated program")
		}
		pos += n
		return v, nil
	}
	n, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("mobilecode: program of %d instructions is unreasonable", n)
	}
	p := make(Program, 0, n)
	for i := uint64(0); i < n; i++ {
		if pos >= len(data) {
			return nil, errors.New("mobilecode: truncated program")
		}
		op := Op(data[pos])
		pos++
		arg, m := binary.Varint(data[pos:])
		if m <= 0 {
			return nil, errors.New("mobilecode: truncated immediate")
		}
		pos += m
		symLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if symLen > 256 || pos+int(symLen) > len(data) {
			return nil, errors.New("mobilecode: truncated symbol")
		}
		sym := string(data[pos : pos+int(symLen)])
		pos += int(symLen)
		p = append(p, Instr{Op: op, Arg: arg, Sym: sym})
	}
	if pos != len(data) {
		return nil, fmt.Errorf("mobilecode: %d trailing bytes after program", len(data)-pos)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// HostFunc is a primitive callable from PAD programs. It pops `Arity`
// buffers (topmost last in the slice) and its results are pushed in order.
// Results declares how many buffers a successful call pushes; the static
// verifier uses it to bound the buffer stack, and the VM enforces the
// declaration at run time when it is set. Fn must treat its arguments as
// read-only — they may be the caller's own inputs to Run, shared with other
// stack slots — and may return them, or sub-slices of them, as results.
type HostFunc struct {
	Name  string
	Arity int
	// Results is the declared number of result buffers. Zero means
	// undeclared for compatibility with hand-built tables; declared tables
	// (HostTable) always fill it in.
	Results int
	Fn      func(args [][]byte) ([][]byte, error)
}

// Sandbox bounds a PAD execution, the paper's VMM/sandbox mechanism. The
// zero value denies everything; use DefaultSandbox for sane limits.
type Sandbox struct {
	MaxInstructions int64 // total executed instructions
	MaxBufferBytes  int64 // total bytes live on the buffer stack
	MaxStackDepth   int   // buffer and int stack depth
}

// DefaultSandbox allows generous budgets suited to page-sized transforms.
func DefaultSandbox() Sandbox {
	return Sandbox{MaxInstructions: 1 << 20, MaxBufferBytes: 64 << 20, MaxStackDepth: 64}
}

// Validate reports whether the sandbox limits are usable.
func (s Sandbox) Validate() error {
	if s.MaxInstructions < 1 || s.MaxBufferBytes < 1 || s.MaxStackDepth < 1 {
		return fmt.Errorf("mobilecode: sandbox limits must be positive: %+v", s)
	}
	return nil
}

// VM executes programs against a host-function table under a sandbox.
// A VM is immutable after construction and safe for concurrent use; each
// Run uses its own execution state.
type VM struct {
	hosts   map[string]HostFunc
	sandbox Sandbox
}

// NewVM builds a VM with the given host functions and sandbox.
func NewVM(hosts []HostFunc, sb Sandbox) (*VM, error) {
	if err := sb.Validate(); err != nil {
		return nil, err
	}
	m := map[string]HostFunc{}
	for _, h := range hosts {
		if h.Name == "" || h.Fn == nil || h.Arity < 0 || h.Results < 0 {
			return nil, fmt.Errorf("mobilecode: malformed host function %q", h.Name)
		}
		if _, dup := m[h.Name]; dup {
			return nil, fmt.Errorf("mobilecode: duplicate host function %q", h.Name)
		}
		m[h.Name] = h
	}
	return &VM{hosts: m, sandbox: sb}, nil
}

// RunError describes a PAD execution failure, including where it occurred.
type RunError struct {
	PC  int
	Op  Op
	Err error
}

// Error implements error.
func (e *RunError) Error() string {
	return fmt.Sprintf("mobilecode: pc=%d %s: %v", e.PC, e.Op, e.Err)
}

// Unwrap exposes the cause.
func (e *RunError) Unwrap() error { return e.Err }

// Budget errors, matchable with errors.Is.
var (
	ErrInstructionBudget = errors.New("instruction budget exhausted")
	ErrMemoryBudget      = errors.New("buffer memory budget exhausted")
	ErrStackDepth        = errors.New("stack depth limit exceeded")
)

// Static-class faults: failures a sound bytecode verifier proves absent
// before deployment (see internal/mobilecode/verify). They are sentinels,
// matchable with errors.Is, so the verifier's differential fuzz harness
// can pin the soundness contract "verifier-accepted programs never trip
// one of these at run time".
var (
	ErrIntUnderflow = errors.New("int stack underflow")
	ErrBufUnderflow = errors.New("buffer stack underflow")
	ErrUnknownHost  = errors.New("unknown host function")
	ErrPCRange      = errors.New("program counter out of range (missing HALT?)")
)

// Run executes the program with the given initial buffer stack and returns
// the final buffer stack. The inputs enter by reference: they are never
// modified — nor is any spare capacity behind them — and the results may
// alias them, so a caller that later overwrites an input must copy the
// results it keeps first.
func (v *VM) Run(p Program, inputs [][]byte) ([][]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := &state{vm: v, bufs: make([][]byte, 0, len(inputs))}
	for _, in := range inputs {
		if err := st.pushB(in[:len(in):len(in)]); err != nil {
			return nil, err
		}
	}
	pc := 0
	for {
		if pc < 0 || pc >= len(p) {
			return nil, &RunError{PC: pc, Op: OpNop, Err: ErrPCRange}
		}
		st.steps++
		if st.steps > v.sandbox.MaxInstructions {
			return nil, &RunError{PC: pc, Op: p[pc].Op, Err: ErrInstructionBudget}
		}
		in := p[pc]
		var err error
		switch in.Op {
		case OpNop:
		case OpHalt:
			return st.bufs, nil
		case OpPush:
			err = st.pushI(in.Arg)
		case OpPop:
			_, err = st.popI()
		case OpDupB:
			var b []byte
			if b, err = st.peekB(); err == nil {
				err = st.pushB(b) // held twice, charged twice
			}
		case OpSwapB:
			err = st.swapB()
		case OpDropB:
			_, err = st.popB()
		case OpSize:
			var b []byte
			if b, err = st.peekB(); err == nil {
				err = st.pushI(int64(len(b)))
			}
		case OpConcatB:
			var top, below []byte
			if top, err = st.popB(); err != nil {
				break
			}
			if below, err = st.popB(); err != nil {
				break
			}
			// A new buffer, never an append into below: its storage is shared.
			out := make([]byte, 0, len(below)+len(top))
			err = st.pushB(append(append(out, below...), top...))
		case OpSliceB:
			var end, start int64
			if end, err = st.popI(); err != nil {
				break
			}
			if start, err = st.popI(); err != nil {
				break
			}
			var b []byte
			if b, err = st.popB(); err != nil {
				break
			}
			if start < 0 || end < start || end > int64(len(b)) {
				err = fmt.Errorf("slice [%d:%d] of %d-byte buffer", start, end, len(b))
				break
			}
			err = st.pushB(b[start:end:end])
		case OpLt, OpEq:
			var b2, a2 int64
			if b2, err = st.popI(); err != nil {
				break
			}
			if a2, err = st.popI(); err != nil {
				break
			}
			r := int64(0)
			if (in.Op == OpLt && a2 < b2) || (in.Op == OpEq && a2 == b2) {
				r = 1
			}
			err = st.pushI(r)
		case OpJmp:
			pc = int(in.Arg)
			continue
		case OpJz:
			var c int64
			if c, err = st.popI(); err != nil {
				break
			}
			if c == 0 {
				pc = int(in.Arg)
				continue
			}
		case OpCall:
			err = st.call(in.Sym)
		default:
			err = fmt.Errorf("unknown opcode %d", in.Op)
		}
		if err != nil {
			return nil, &RunError{PC: pc, Op: in.Op, Err: err}
		}
		pc++
	}
}

// state is one execution's mutable machinery.
type state struct {
	vm    *VM
	bufs  [][]byte
	ints  []int64
	bytes int64
	steps int64
}

func (s *state) pushB(b []byte) error {
	if len(s.bufs) >= s.vm.sandbox.MaxStackDepth {
		return ErrStackDepth
	}
	s.bytes += int64(len(b))
	if s.bytes > s.vm.sandbox.MaxBufferBytes {
		return ErrMemoryBudget
	}
	s.bufs = append(s.bufs, b)
	return nil
}

func (s *state) popB() ([]byte, error) {
	if len(s.bufs) == 0 {
		return nil, ErrBufUnderflow
	}
	b := s.bufs[len(s.bufs)-1]
	s.bufs = s.bufs[:len(s.bufs)-1]
	s.bytes -= int64(len(b))
	return b, nil
}

func (s *state) peekB() ([]byte, error) {
	if len(s.bufs) == 0 {
		return nil, ErrBufUnderflow
	}
	return s.bufs[len(s.bufs)-1], nil
}

func (s *state) swapB() error {
	if len(s.bufs) < 2 {
		return ErrBufUnderflow
	}
	n := len(s.bufs)
	s.bufs[n-1], s.bufs[n-2] = s.bufs[n-2], s.bufs[n-1]
	return nil
}

func (s *state) pushI(v int64) error {
	if len(s.ints) >= s.vm.sandbox.MaxStackDepth {
		return ErrStackDepth
	}
	s.ints = append(s.ints, v)
	return nil
}

func (s *state) popI() (int64, error) {
	if len(s.ints) == 0 {
		return 0, ErrIntUnderflow
	}
	v := s.ints[len(s.ints)-1]
	s.ints = s.ints[:len(s.ints)-1]
	return v, nil
}

func (s *state) call(sym string) error {
	h, ok := s.vm.hosts[sym]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownHost, sym)
	}
	args := make([][]byte, h.Arity)
	for i := h.Arity - 1; i >= 0; i-- {
		b, err := s.popB()
		if err != nil {
			return fmt.Errorf("call %q: %w", sym, err)
		}
		args[i] = b
	}
	results, err := h.Fn(args)
	if err != nil {
		return fmt.Errorf("call %q: %w", sym, err)
	}
	// A declared result count is a contract the verifier's stack-height
	// proof depends on; a primitive that violates it is a host-table bug,
	// not a program fault, and must not silently skew the buffer stack.
	if h.Results > 0 && len(results) != h.Results {
		return fmt.Errorf("call %q: host returned %d buffers, declared %d", sym, len(results), h.Results)
	}
	for _, r := range results {
		if err := s.pushB(r); err != nil {
			return fmt.Errorf("call %q result: %w", sym, err)
		}
	}
	return nil
}
