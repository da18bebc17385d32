// Package verify is Fractal's static bytecode verifier: the Go-era
// analogue of the JVM bytecode verifier the paper's Java substrate got for
// free. mobilecode.Program.Validate only checks structure (known opcodes,
// operands, a HALT last); a signed-but-buggy PAD can still fault at run
// time with a stack underflow or an unknown host symbol. A PAD program is
// a straight-line pipeline — the language has no jumps — so one pass over
// its instructions in order follows the only execution there is, and
// proves those faults absent *before* deployment:
//
//   - Stack safety. The buffer-stack height, starting from the calling
//     convention's Inputs buffers, covers each instruction's pops, and its
//     pushes stay within the sandbox depth limit.
//   - Capability safety. Every CALL resolves inside the declared
//     capability set; a PAD that calls outside its manifest's host
//     functions is rejected at deploy time, not at run time mid-stream.
//   - Result safety. The only HALT is the last instruction (nothing after
//     it is dead code) and it is reached with at least MinResults buffers.
//
// Cost needs no proof: a run retires at most len(program) instructions.
//
// The soundness contract, pinned by a differential fuzz harness: a program
// this package accepts never faults in the VM with a static-class error
// (mobilecode.ErrBufUnderflow, ErrUnknownHost or ErrStackDepth) when run
// under the verified sandbox with Inputs buffers against a host table
// matching the capability set. Data-dependent failures — host-function
// errors and the memory budget — remain sandbox matters by design.
package verify

import (
	"errors"
	"fmt"
	"slices"

	"fractal/internal/mobilecode"
)

// The PAD calling convention: a program runs with [old, cur] (encode) or
// [old, payload] (decode) on the buffer stack and its result is the top
// buffer it halts with.
const (
	Inputs     = 2
	MinResults = 1
)

// Config is one verification policy.
type Config struct {
	// Caps is the declared capability manifest CALLs must resolve in: the
	// host functions a program may call, read for their names and stack
	// effects (how many buffers each pops, and pushes on success).
	Caps []mobilecode.HostFunc
	// Sandbox supplies the stack depth limit the heights are checked
	// against.
	Sandbox mobilecode.Sandbox
}

// DeployConfig is the policy the deployment pipeline enforces on PAD
// programs: the host table's capability manifest and the deploying
// sandbox. It copies nothing, so a deploy pays nothing for it.
func DeployConfig(hosts []mobilecode.HostFunc, sb mobilecode.Sandbox) Config {
	return Config{Caps: hosts, Sandbox: sb}
}

// Report is the proof summary for an accepted program.
type Report struct {
	// Instructions is the program length, which is also the exact number
	// of instructions one execution retires.
	Instructions int
	// MaxBufDepth is the deepest the buffer stack gets.
	MaxBufDepth int
	// Calls lists the host symbols the program resolves, sorted.
	Calls []string
}

// Verification failure classes, matchable with errors.Is against the Kind
// of a *verify.Error.
var (
	ErrMalformed      = errors.New("malformed program")
	ErrBufUnderflow   = errors.New("buffer stack underflows")
	ErrStackDepth     = errors.New("stack exceeds the sandbox depth limit")
	ErrUndeclaredCall = errors.New("CALL outside the declared capability set")
	ErrDeadCode       = errors.New("unreachable instruction")
	ErrNoResult       = errors.New("HALT is reached without the required result buffers")
	ErrConfig         = errors.New("unusable verification config")
)

// Error is a typed verification rejection naming the offending
// instruction. PC is -1 for program-wide failures (malformed program,
// unusable config).
type Error struct {
	PC     int
	Op     mobilecode.Op
	Kind   error
	Detail string
}

// Error implements error.
func (e *Error) Error() string {
	suffix := ""
	if e.Detail != "" {
		suffix = ": " + e.Detail
	}
	if e.PC < 0 {
		return fmt.Sprintf("verify: %v%s", e.Kind, suffix)
	}
	return fmt.Sprintf("verify: instruction %d (%s): %v%s", e.PC, e.Op, e.Kind, suffix)
}

// Unwrap exposes the failure class for errors.Is.
func (e *Error) Unwrap() error { return e.Kind }

// errAt builds a rejection at an instruction.
func errAt(p mobilecode.Program, pc int, kind error, format string, args ...interface{}) *Error {
	return &Error{PC: pc, Op: p[pc].Op, Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// Program statically verifies one program under a policy, returning the
// proof summary or a typed rejection naming the offending instruction.
func Program(p mobilecode.Program, cfg Config) (*Report, error) {
	rep := &Report{Instructions: len(p), MaxBufDepth: Inputs}
	if err := check(p, cfg, rep); err != nil {
		return nil, err
	}
	slices.Sort(rep.Calls)
	return rep, nil
}

// check is the one verification walk. It returns the rejection, or nil
// for an accepted program; rep, when not nil, collects the proof summary
// as it goes, less the sorting of Calls.
func check(p mobilecode.Program, cfg Config, rep *Report) error {
	if err := cfg.Sandbox.Validate(); err != nil {
		return &Error{PC: -1, Kind: ErrConfig, Detail: err.Error()}
	}
	if Inputs > cfg.Sandbox.MaxStackDepth {
		return &Error{PC: -1, Kind: ErrConfig, Detail: fmt.Sprintf("%d input buffers exceed the sandbox depth limit %d", Inputs, cfg.Sandbox.MaxStackDepth)}
	}
	if err := p.Validate(); err != nil {
		return &Error{PC: -1, Kind: ErrMalformed, Detail: err.Error()}
	}
	depth := Inputs
	for pc, in := range p {
		var pop, push int
		switch in.Op {
		case mobilecode.OpHalt:
			if pc != len(p)-1 {
				return errAt(p, pc+1, ErrDeadCode, "the HALT at instruction %d stops every run before it", pc)
			}
			if depth < MinResults {
				return errAt(p, pc, ErrNoResult, "halts with %d of %d required buffers", depth, MinResults)
			}
		case mobilecode.OpDupB:
			pop, push = 1, 2
		case mobilecode.OpSwapB:
			pop, push = 2, 2
		case mobilecode.OpDropB:
			pop = 1
		case mobilecode.OpCall:
			i := slices.IndexFunc(cfg.Caps, func(h mobilecode.HostFunc) bool { return h.Name == in.Sym })
			if i < 0 {
				return errAt(p, pc, ErrUndeclaredCall, "symbol %q is not in the %d-symbol manifest", in.Sym, len(cfg.Caps))
			}
			pop, push = cfg.Caps[i].Arity, cfg.Caps[i].Results
			if rep != nil && !slices.Contains(rep.Calls, in.Sym) {
				rep.Calls = append(rep.Calls, in.Sym)
			}
		}
		if depth < pop {
			return errAt(p, pc, ErrBufUnderflow, "needs %d buffers, arrives with %d", pop, depth)
		}
		if depth += push - pop; depth > cfg.Sandbox.MaxStackDepth {
			return errAt(p, pc, ErrStackDepth, "buffer stack reaches %d of limit %d", depth, cfg.Sandbox.MaxStackDepth)
		}
		if rep != nil {
			rep.MaxBufDepth = max(rep.MaxBufDepth, depth)
		}
	}
	return nil
}

// LoaderVerifier returns the mobilecode.VerifyFunc production deploy paths
// install on their Loader: each program of a module is verified under the
// module's own host-table manifest and the deploying sandbox, with the
// [old, x] -> result calling convention. A deploy needs the verdict only,
// so it walks the program without building a Report.
func LoaderVerifier() mobilecode.VerifyFunc {
	return func(role string, p mobilecode.Program, hosts []mobilecode.HostFunc, sb mobilecode.Sandbox) error {
		if err := check(p, DeployConfig(hosts, sb), nil); err != nil {
			return fmt.Errorf("verifier rejected %s program: %w", role, err)
		}
		return nil
	}
}

// ModuleReport carries the per-program proofs of one verified module.
type ModuleReport struct {
	ID      string
	Version string
	Encode  *Report
	Decode  *Report
}

// Module statically verifies both programs of a module against the
// capability manifest its own params configure, under the given sandbox.
// It performs no signature check — provenance is the Loader's business;
// this is the safety half of the deploy gate.
func Module(m *mobilecode.Module, sb mobilecode.Sandbox) (*ModuleReport, error) {
	hosts, err := mobilecode.HostTable(m.Params)
	if err != nil {
		return nil, fmt.Errorf("verify: module %s host table: %w", m.ID, err)
	}
	cfg := DeployConfig(hosts, sb)
	rep := &ModuleReport{ID: m.ID, Version: m.Version}
	enc, err := mobilecode.UnmarshalProgram(m.Encode)
	if err != nil {
		return nil, fmt.Errorf("verify: module %s encode program: %w", m.ID, err)
	}
	if rep.Encode, err = Program(enc, cfg); err != nil {
		return nil, fmt.Errorf("verify: module %s encode program: %w", m.ID, err)
	}
	dec, err := mobilecode.UnmarshalProgram(m.Decode)
	if err != nil {
		return nil, fmt.Errorf("verify: module %s decode program: %w", m.ID, err)
	}
	if rep.Decode, err = Program(dec, cfg); err != nil {
		return nil, fmt.Errorf("verify: module %s decode program: %w", m.ID, err)
	}
	return rep, nil
}

// Packed unpacks a packed module (structure and payload digest checks)
// and verifies it under the sandbox: the gate registration paths apply to
// module bytes before metadata may enter a PAT.
func Packed(data []byte, sb mobilecode.Sandbox) (*ModuleReport, error) {
	m, err := mobilecode.Unpack(data)
	if err != nil {
		return nil, err
	}
	return Module(m, sb)
}
