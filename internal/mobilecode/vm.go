// Package mobilecode is Fractal's mobile-code substrate. The paper ships
// protocol adaptors (PADs) as Java class objects loaded by the JVM; Go has
// no runtime code loading, so a PAD here is a signed, digest-protected
// module whose payload is a program for a small buffer-stack virtual
// machine. The VM preserves the property the framework needs — a client
// can download, verify, and *execute* protocol logic it did not ship with —
// including the paper's security mechanisms (Section 3.5): SHA-1 message
// digests, code signing against a trust list, and a sandbox that bounds
// the memory and buffers a PAD may hold. A program is a straight-line
// pipeline of host-function calls and buffer-stack shuffles with no jumps,
// so every run terminates after at most len(program) instructions.
package mobilecode

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fractal/internal/codec"
	"fractal/internal/wire"
)

// Op is a VM opcode. The machine has one stack of byte slices, the data
// being transformed; host calls invoke named primitives registered by the
// embedder. Buffers are immutable values: no instruction writes the bytes
// of one, so the stack, the caller's inputs and the results may share
// storage freely.
type Op uint8

// The instruction set. The byte values are the program wire encoding, and
// the gaps between them are opcodes the language no longer has, which
// Validate refuses.
const (
	OpHalt  Op = 1  // stop successfully
	OpDupB  Op = 4  // duplicate top buffer (a second reference, no copy)
	OpSwapB Op = 5  // swap top two buffers
	OpDropB Op = 6  // drop top buffer
	OpCall  Op = 14 // invoke host function named by the symbol
)

var opNames = map[Op]string{
	OpHalt: "HALT", OpDupB: "DUPB", OpSwapB: "SWAPB", OpDropB: "DROPB", OpCall: "CALL",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Instr is one VM instruction. Sym is the host-function name for OpCall.
type Instr struct {
	Op  Op
	Sym string
}

// Program is an executable instruction sequence.
type Program []Instr

// Validate performs static checks: known opcodes, a symbol on every CALL
// and on nothing else, and a HALT last. A valid program can still fail at
// run time (stack underflow, unknown host function, memory budget) —
// those are sandbox matters, and the bytecode verifier's.
func (p Program) Validate() error {
	if len(p) == 0 {
		return errors.New("mobilecode: empty program")
	}
	for i, in := range p {
		switch in.Op {
		case OpHalt, OpDupB, OpSwapB, OpDropB:
			if in.Sym != "" {
				return fmt.Errorf("mobilecode: instruction %d: %s takes no symbol, got %q", i, in.Op, in.Sym)
			}
		case OpCall:
			if in.Sym == "" {
				return fmt.Errorf("mobilecode: instruction %d: CALL without symbol", i)
			}
		default:
			return fmt.Errorf("mobilecode: instruction %d: unknown opcode %d", i, in.Op)
		}
	}
	if last := p[len(p)-1].Op; last != OpHalt {
		return fmt.Errorf("mobilecode: program ends in %s, not HALT", last)
	}
	return nil
}

// MarshalBinary encodes the program for transport inside a PAD module,
// in package wire's encoding: a uvarint instruction count, then per
// instruction its opcode byte, a varint immediate (always zero: no opcode
// takes one) and its symbol string.
func (p Program) MarshalBinary() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := binary.AppendUvarint(nil, uint64(len(p)))
	for _, in := range p {
		out = wire.AppendString(append(out, byte(in.Op), 0), in.Sym)
	}
	return out, nil
}

// UnmarshalProgram decodes a program encoded by MarshalBinary and
// validates it. A non-zero immediate is refused along with every opcode
// Validate refuses.
func UnmarshalProgram(data []byte) (Program, error) {
	r := wire.NewReader(data, false)
	n := r.Uvarint()
	if n > 1<<20 || n > uint64(len(data)) { // an instruction costs at least a byte
		return nil, fmt.Errorf("mobilecode: program of %d instructions is unreasonable", n)
	}
	p := make(Program, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		var in Instr
		if op := r.Take(1); len(op) == 1 {
			in.Op = Op(op[0])
		}
		if arg := r.Varint(); arg != 0 {
			return nil, fmt.Errorf("mobilecode: instruction %d: %s carries immediate %d; no opcode takes one", i, in.Op, arg)
		}
		in.Sym = symbol(r.Bytes())
		p = append(p, in)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("mobilecode: malformed program: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// symbol returns a decoded CALL symbol, a primitive's by its table copy.
func symbol(b []byte) string {
	if h, ok := primitiveVM.hosts[string(b)]; ok {
		return h.Name
	}
	return string(b)
}

// HostFunc is a primitive callable from PAD programs. It pops `Arity`
// buffers (topmost last in the slice) and pushes the `Results` buffers it
// returns, in order. The count is a contract: the static verifier bounds
// the buffer stack with it, and the VM fails a call that returns another
// number. Fn runs against the calling VM's Codecs (nil on a VM NewVM
// built) and the version the receiver holds (nil unless
// DeployedPAD.DecodeHeld started the run). It must treat its arguments as
// read-only — they may be the caller's own inputs to Run, shared with
// other stack slots — and may return them, sub-slices of them or the held
// version itself as results.
type HostFunc struct {
	Name    string
	Arity   int
	Results int
	Fn      func(c *Codecs, held *codec.Held, args [][]byte) ([][]byte, error)
}

// Sandbox bounds a PAD execution, the paper's VMM/sandbox mechanism. The
// zero value denies everything; use DefaultSandbox for sane limits.
type Sandbox struct {
	MaxBufferBytes int64 // total bytes live on the buffer stack
	MaxStackDepth  int   // buffer stack depth
}

// DefaultSandbox allows generous budgets suited to page-sized transforms.
func DefaultSandbox() Sandbox {
	return Sandbox{MaxBufferBytes: 64 << 20, MaxStackDepth: 64}
}

// Validate reports whether the sandbox limits are usable.
func (s Sandbox) Validate() error {
	if s.MaxBufferBytes < 1 || s.MaxStackDepth < 1 {
		return fmt.Errorf("mobilecode: sandbox limits must be positive: %+v", s)
	}
	return nil
}

// VM executes programs against a host-function table under a sandbox.
// A VM is immutable after construction and safe for concurrent use; each
// Run uses its own execution state.
type VM struct {
	hosts   map[string]HostFunc
	codecs  *Codecs // handed to every host call
	sandbox Sandbox
}

// NewVM builds a VM with the given host functions and sandbox.
func NewVM(hosts []HostFunc, sb Sandbox) (*VM, error) {
	if err := sb.Validate(); err != nil {
		return nil, err
	}
	m := map[string]HostFunc{}
	for _, h := range hosts {
		if h.Name == "" || h.Fn == nil || h.Arity < 0 || h.Results < 1 {
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
	ErrMemoryBudget = errors.New("buffer memory budget exhausted")
	ErrStackDepth   = errors.New("stack depth limit exceeded")
)

// Static-class faults: failures a sound bytecode verifier proves absent
// before deployment (see internal/mobilecode/verify). They are sentinels,
// matchable with errors.Is, so the verifier's differential fuzz harness
// can pin the soundness contract "verifier-accepted programs never trip
// one of these at run time".
var (
	ErrBufUnderflow = errors.New("buffer stack underflow")
	ErrUnknownHost  = errors.New("unknown host function")
)

// Run executes the program with the given initial buffer stack and returns
// the final buffer stack. The inputs enter by reference: they are never
// modified — nor is any spare capacity behind them — and the results may
// alias them, so a caller that later overwrites an input must copy the
// results it keeps first.
func (v *VM) Run(p Program, inputs [][]byte) ([][]byte, error) {
	return v.run(p, nil, inputs)
}

// run is Run with the held version host calls receive.
func (v *VM) run(p Program, held *codec.Held, inputs [][]byte) ([][]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := &state{vm: v, held: held, bufs: make([][]byte, 0, len(inputs))}
	for _, in := range inputs {
		if err := st.pushB(in[:len(in):len(in)]); err != nil {
			return nil, err
		}
	}
	// Validate put a HALT last, so the loop stops inside the program.
	for pc := 0; p[pc].Op != OpHalt; pc++ {
		in := p[pc]
		var err error
		switch in.Op {
		case OpDupB:
			var b []byte
			if b, err = st.peekB(); err == nil {
				err = st.pushB(b) // held twice, charged twice
			}
		case OpSwapB:
			err = st.swapB()
		case OpDropB:
			_, err = st.popB()
		case OpCall:
			err = st.call(in.Sym)
		}
		if err != nil {
			return nil, &RunError{PC: pc, Op: in.Op, Err: err}
		}
	}
	return st.bufs, nil
}

// state is one execution's mutable machinery.
type state struct {
	vm    *VM
	held  *codec.Held
	bufs  [][]byte
	bytes int64
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
	results, err := h.Fn(s.vm.codecs, s.held, args)
	if err != nil {
		return fmt.Errorf("call %q: %w", sym, err)
	}
	// The result count is a contract the verifier's stack-height proof
	// depends on; a primitive that violates it is a host-table bug, not a
	// program fault, and must not silently skew the buffer stack.
	if len(results) != h.Results {
		return fmt.Errorf("call %q: host returned %d buffers, declared %d", sym, len(results), h.Results)
	}
	for _, r := range results {
		if err := s.pushB(r); err != nil {
			return fmt.Errorf("call %q result: %w", sym, err)
		}
	}
	return nil
}
