// Package verify is Fractal's static bytecode verifier: the Go-era
// analogue of the JVM bytecode verifier the paper's Java substrate got for
// free. mobilecode.Program.Validate only checks structure (known opcodes,
// in-range jump targets); a signed-but-buggy PAD can still fault at run
// time with a stack underflow, an unknown host symbol, or a missing HALT.
// This package proves those faults absent *before* deployment by abstract
// interpretation over the program's control-flow graph:
//
//   - Stack safety. Per-instruction dataflow of the int-stack and
//     buffer-stack heights in an interval abstraction, merged at join
//     points, so every path into an instruction agrees the stacks are deep
//     enough for its pops and shallow enough for its pushes to respect the
//     sandbox depth limit.
//   - Control safety. Every instruction is reachable (dead code is
//     rejected), execution cannot fall off the end of the program, and
//     HALT is reachable from every reachable instruction.
//   - Capability safety. Every CALL resolves inside the declared
//     capability set; a PAD that calls outside its manifest's host
//     functions is rejected at deploy time, not at run time mid-stream.
//   - Cost safety. Loop-free programs get an exact worst-case instruction
//     bound checked against the sandbox budget. Programs with cycles are
//     rejected unless the policy allows loops AND every back edge that
//     closes a cycle is a conditional jump — the guard the VM's
//     per-instruction budget counter checks on every trip — in which case
//     the sandbox instruction budget itself is the (inexact) bound.
//
// The soundness contract, pinned by a differential fuzz harness: a program
// this package accepts never faults in the VM with a static-class error
// (mobilecode.ErrIntUnderflow, ErrBufUnderflow, ErrUnknownHost, ErrPCRange,
// or ErrStackDepth) when run under the verified sandbox with the verified
// input count against a host table matching the capability set.
// Data-dependent failures — slice bounds, host-function errors, memory and
// instruction budget exhaustion — remain sandbox matters by design.
package verify

import (
	"errors"
	"fmt"
	"sort"

	"fractal/internal/mobilecode"
)

// Capability declares one host function a program may CALL: how many
// buffers it pops and how many it pushes on success.
type Capability struct {
	Arity   int
	Results int
}

// CapSet is a declared capability manifest: the host symbols a program is
// allowed to call, with their stack effects.
type CapSet map[string]Capability

// CapsForHosts derives the capability set from a host table. Host
// functions with an undeclared result count (Results == 0) are excluded —
// the verifier cannot bound the buffer stack across a call whose push
// count it does not know, so such symbols are uncallable from verified
// programs. The standard table (mobilecode.HostTable) declares every
// primitive.
func CapsForHosts(hosts []mobilecode.HostFunc) CapSet {
	caps := make(CapSet, len(hosts))
	for _, h := range hosts {
		if h.Results <= 0 {
			continue
		}
		caps[h.Name] = Capability{Arity: h.Arity, Results: h.Results}
	}
	return caps
}

// Config is one verification policy.
type Config struct {
	// Caps is the declared capability manifest CALLs must resolve in.
	Caps CapSet
	// Sandbox supplies the budgets the static bounds are checked against.
	Sandbox mobilecode.Sandbox
	// Inputs is the initial buffer-stack height the program runs with.
	// The PAD calling convention is 2: [old, cur] for encode, [old,
	// payload] for decode.
	Inputs int
	// MinResults is the buffer-stack height every HALT must guarantee.
	// The PAD calling convention takes the top buffer as the result, so
	// deployment requires 1.
	MinResults int
	// AllowLoops accepts programs with cycles when every back edge that
	// closes a cycle is conditional (JZ) and HALT stays reachable; their
	// cost bound is the sandbox instruction budget the VM enforces at each
	// trip. When false any cycle is rejected and every accepted program
	// has an exact static cost.
	AllowLoops bool
}

// DeployConfig is the policy the deployment pipeline enforces on PAD
// programs: the capability manifest of the module's own host table, the
// deploying sandbox, and the [old, x] -> result calling convention.
func DeployConfig(hosts []mobilecode.HostFunc, sb mobilecode.Sandbox) Config {
	return Config{
		Caps:       CapsForHosts(hosts),
		Sandbox:    sb,
		Inputs:     2,
		MinResults: 1,
		AllowLoops: true,
	}
}

// Report is the proof summary for an accepted program.
type Report struct {
	// Instructions is the program length.
	Instructions int
	// MaxCost bounds the instructions one execution retires. Exact for
	// loop-free programs; for accepted cyclic programs it is the sandbox
	// instruction budget.
	MaxCost int64
	// ExactCost reports whether MaxCost is the exact loop-free bound.
	ExactCost bool
	// MaxIntDepth and MaxBufDepth bound the two stacks over every path.
	MaxIntDepth int
	MaxBufDepth int
	// Loops reports whether the program has (accepted, guarded) cycles.
	Loops bool
	// Calls lists the host symbols the program resolves, sorted.
	Calls []string
}

// Verification failure classes, matchable with errors.Is against the Kind
// of a *verify.Error.
var (
	ErrMalformed      = errors.New("malformed program")
	ErrIntUnderflow   = errors.New("int stack may underflow")
	ErrBufUnderflow   = errors.New("buffer stack may underflow")
	ErrStackDepth     = errors.New("stack may exceed the sandbox depth limit")
	ErrUndeclaredCall = errors.New("CALL outside the declared capability set")
	ErrDeadCode       = errors.New("unreachable instruction")
	ErrNoHalt         = errors.New("HALT is unreachable from this instruction")
	ErrFallsOff       = errors.New("execution can fall off the end of the program")
	ErrLoop           = errors.New("cycle in a loop-free policy")
	ErrUnboundedLoop  = errors.New("unconditional back edge closes an unbudgeted cycle")
	ErrCost           = errors.New("worst-case cost exceeds the sandbox instruction budget")
	ErrNoResult       = errors.New("HALT may be reached without the required result buffers")
	ErrConfig         = errors.New("unusable verification config")
)

// Error is a typed verification rejection naming the offending
// instruction. PC is -1 for program-wide failures (empty program,
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
	e := &Error{PC: pc, Kind: kind, Detail: fmt.Sprintf(format, args...)}
	if pc >= 0 && pc < len(p) {
		e.Op = p[pc].Op
	}
	return e
}

// interval is the abstract height of one stack: every concrete execution
// reaching the instruction has lo <= height <= hi.
type interval struct{ lo, hi int }

// absState is the abstract machine state at an instruction entry.
type absState struct{ ints, bufs interval }

// merge joins two states (interval union); ok reports whether the
// receiver changed.
func (s *absState) merge(o absState) bool {
	changed := false
	if o.ints.lo < s.ints.lo {
		s.ints.lo, changed = o.ints.lo, true
	}
	if o.ints.hi > s.ints.hi {
		s.ints.hi, changed = o.ints.hi, true
	}
	if o.bufs.lo < s.bufs.lo {
		s.bufs.lo, changed = o.bufs.lo, true
	}
	if o.bufs.hi > s.bufs.hi {
		s.bufs.hi, changed = o.bufs.hi, true
	}
	return changed
}

// effect is an instruction's stack effect: pops are checked against the
// abstract lower bound, pushes against the sandbox depth limit.
type effect struct{ intPop, intPush, bufPop, bufPush int }

// effectOf resolves an instruction's stack effect under the capability
// set. CALL resolution failures surface as ErrUndeclaredCall.
func effectOf(p mobilecode.Program, pc int, caps CapSet) (effect, *Error) {
	switch in := p[pc]; in.Op {
	case mobilecode.OpNop, mobilecode.OpHalt, mobilecode.OpJmp:
		return effect{}, nil
	case mobilecode.OpPush:
		return effect{intPush: 1}, nil
	case mobilecode.OpPop, mobilecode.OpJz:
		return effect{intPop: 1}, nil
	case mobilecode.OpDupB:
		return effect{bufPop: 1, bufPush: 2}, nil
	case mobilecode.OpSwapB:
		return effect{bufPop: 2, bufPush: 2}, nil
	case mobilecode.OpDropB:
		return effect{bufPop: 1}, nil
	case mobilecode.OpSize:
		return effect{bufPop: 1, bufPush: 1, intPush: 1}, nil
	case mobilecode.OpConcatB:
		return effect{bufPop: 2, bufPush: 1}, nil
	case mobilecode.OpSliceB:
		return effect{intPop: 2, bufPop: 1, bufPush: 1}, nil
	case mobilecode.OpLt, mobilecode.OpEq:
		return effect{intPop: 2, intPush: 1}, nil
	case mobilecode.OpCall:
		cap, ok := caps[in.Sym]
		if !ok {
			return effect{}, errAt(p, pc, ErrUndeclaredCall, "symbol %q is not in the %d-symbol manifest", in.Sym, len(caps))
		}
		return effect{bufPop: cap.Arity, bufPush: cap.Results}, nil
	default:
		return effect{}, errAt(p, pc, ErrMalformed, "unknown opcode %d", uint8(in.Op))
	}
}

// Program statically verifies one program under a policy, returning the
// proof summary or a typed rejection naming the offending instruction.
func Program(p mobilecode.Program, cfg Config) (*Report, error) {
	if err := cfg.Sandbox.Validate(); err != nil {
		return nil, &Error{PC: -1, Kind: ErrConfig, Detail: err.Error()}
	}
	if cfg.Inputs < 0 || cfg.MinResults < 0 {
		return nil, &Error{PC: -1, Kind: ErrConfig, Detail: fmt.Sprintf("negative inputs (%d) or min results (%d)", cfg.Inputs, cfg.MinResults)}
	}
	if cfg.Inputs > cfg.Sandbox.MaxStackDepth {
		return nil, &Error{PC: -1, Kind: ErrConfig, Detail: fmt.Sprintf("%d input buffers exceed the sandbox depth limit %d", cfg.Inputs, cfg.Sandbox.MaxStackDepth)}
	}
	if err := p.Validate(); err != nil {
		return nil, &Error{PC: -1, Kind: ErrMalformed, Detail: err.Error()}
	}

	succs, fallsOff := successors(p)

	// Forward reachability from the entry: dead code is rejected — an
	// instruction no path executes is either a truncated control transfer
	// or payload smuggled past review, and neither belongs in signed
	// mobile code.
	reached := reach(len(p), []int{0}, func(u int) []int { return succs[u] })
	for pc := range p {
		if !reached[pc] {
			return nil, errAt(p, pc, ErrDeadCode, "no path from the entry executes it")
		}
	}
	for pc := range p {
		if fallsOff[pc] {
			return nil, errAt(p, pc, ErrFallsOff, "the instruction after it would be %d of %d", pc+1, len(p))
		}
	}

	// Every reachable instruction must be able to reach a HALT: a node
	// that cannot is a guaranteed infinite loop (or a fault) at run time.
	preds := invert(len(p), succs)
	var halts []int
	for pc := range p {
		if p[pc].Op == mobilecode.OpHalt {
			halts = append(halts, pc)
		}
	}
	toHalt := reach(len(p), halts, func(u int) []int { return preds[u] })
	for pc := range p {
		if !toHalt[pc] {
			return nil, errAt(p, pc, ErrNoHalt, "every continuation loops forever")
		}
	}

	report := &Report{Instructions: len(p)}

	// Cycle analysis: DFS classifies the edges that close cycles. A
	// loop-free program gets an exact longest-path cost below; a cyclic
	// one is rejected outright under a loop-free policy, and otherwise
	// must close every cycle with a conditional jump — the guard the VM's
	// per-instruction budget counter re-checks on every trip, which is
	// what bounds the loop at run time.
	cycleEdges, order := dfs(len(p), succs)
	report.Loops = len(cycleEdges) > 0
	if report.Loops {
		if !cfg.AllowLoops {
			u := cycleEdges[0].from
			return nil, errAt(p, u, ErrLoop, "back edge to instruction %d under a loop-free policy", cycleEdges[0].to)
		}
		for _, e := range cycleEdges {
			if p[e.from].Op != mobilecode.OpJz {
				return nil, errAt(p, e.from, ErrUnboundedLoop, "back edge to instruction %d must be a conditional jump", e.to)
			}
		}
		report.MaxCost = cfg.Sandbox.MaxInstructions
	} else {
		report.MaxCost = longestPath(order, succs)
		report.ExactCost = true
		if report.MaxCost > cfg.Sandbox.MaxInstructions {
			return nil, errAt(p, 0, ErrCost, "exact worst case of %d instructions exceeds budget %d", report.MaxCost, cfg.Sandbox.MaxInstructions)
		}
	}

	// Abstract interpretation of stack heights. The lattice is finite —
	// lower bounds only fall (floor 0, enforced by the underflow check)
	// and upper bounds only rise (ceiling MaxStackDepth, enforced by the
	// depth check) — so the worklist reaches a fixpoint without widening;
	// the update budget below is a pure defence against a pathological
	// sandbox with an astronomically deep stack limit.
	states := make([]absState, len(p))
	seen := make([]bool, len(p))
	states[0] = absState{ints: interval{0, 0}, bufs: interval{cfg.Inputs, cfg.Inputs}}
	seen[0] = true
	work := []int{0}
	updates := 0
	maxUpdates := 64*len(p) + 4096
	calls := map[string]bool{}
	report.MaxIntDepth, report.MaxBufDepth = 0, cfg.Inputs
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		st := states[pc]
		eff, verr := effectOf(p, pc, cfg.Caps)
		if verr != nil {
			return nil, verr
		}
		in := p[pc]
		if in.Op == mobilecode.OpCall {
			calls[in.Sym] = true
		}
		if st.ints.lo < eff.intPop {
			return nil, errAt(p, pc, ErrIntUnderflow, "needs %d ints, a path arrives with as few as %d", eff.intPop, st.ints.lo)
		}
		if st.bufs.lo < eff.bufPop {
			return nil, errAt(p, pc, ErrBufUnderflow, "needs %d buffers, a path arrives with as few as %d", eff.bufPop, st.bufs.lo)
		}
		out := absState{
			ints: interval{st.ints.lo - eff.intPop + eff.intPush, st.ints.hi - eff.intPop + eff.intPush},
			bufs: interval{st.bufs.lo - eff.bufPop + eff.bufPush, st.bufs.hi - eff.bufPop + eff.bufPush},
		}
		if out.ints.hi > cfg.Sandbox.MaxStackDepth {
			return nil, errAt(p, pc, ErrStackDepth, "int stack may reach %d of limit %d", out.ints.hi, cfg.Sandbox.MaxStackDepth)
		}
		if out.bufs.hi > cfg.Sandbox.MaxStackDepth {
			return nil, errAt(p, pc, ErrStackDepth, "buffer stack may reach %d of limit %d", out.bufs.hi, cfg.Sandbox.MaxStackDepth)
		}
		if out.ints.hi > report.MaxIntDepth {
			report.MaxIntDepth = out.ints.hi
		}
		if out.bufs.hi > report.MaxBufDepth {
			report.MaxBufDepth = out.bufs.hi
		}
		if in.Op == mobilecode.OpHalt {
			if st.bufs.lo < cfg.MinResults {
				return nil, errAt(p, pc, ErrNoResult, "a path halts with as few as %d of %d required buffers", st.bufs.lo, cfg.MinResults)
			}
			continue
		}
		for _, nxt := range succs[pc] {
			if !seen[nxt] {
				seen[nxt] = true
				states[nxt] = out
				work = append(work, nxt)
				continue
			}
			if states[nxt].merge(out) {
				updates++
				if updates > maxUpdates {
					return nil, errAt(p, nxt, ErrStackDepth, "stack-height analysis diverged after %d refinements", updates)
				}
				work = append(work, nxt)
			}
		}
	}

	for sym := range calls {
		report.Calls = append(report.Calls, sym)
	}
	sort.Strings(report.Calls)
	return report, nil
}

// successors builds the CFG edge lists; fallsOff marks instructions whose
// fallthrough successor would be past the end of the program.
func successors(p mobilecode.Program) (succs [][]int, fallsOff []bool) {
	succs = make([][]int, len(p))
	fallsOff = make([]bool, len(p))
	for pc, in := range p {
		switch in.Op {
		case mobilecode.OpHalt:
		case mobilecode.OpJmp:
			succs[pc] = []int{int(in.Arg)}
		case mobilecode.OpJz:
			if pc+1 >= len(p) {
				fallsOff[pc] = true
				succs[pc] = []int{int(in.Arg)}
				continue
			}
			if int(in.Arg) == pc+1 {
				succs[pc] = []int{pc + 1}
			} else {
				succs[pc] = []int{int(in.Arg), pc + 1}
			}
		default:
			if pc+1 >= len(p) {
				fallsOff[pc] = true
				continue
			}
			succs[pc] = []int{pc + 1}
		}
	}
	return succs, fallsOff
}

// reach computes the nodes reachable from the roots over next().
func reach(n int, roots []int, next func(int) []int) []bool {
	seen := make([]bool, n)
	stack := make([]int, 0, len(roots))
	for _, r := range roots {
		if r >= 0 && r < n && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range next(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// invert reverses an adjacency list.
func invert(n int, succs [][]int) [][]int {
	preds := make([][]int, n)
	for u, vs := range succs {
		for _, v := range vs {
			preds[v] = append(preds[v], u)
		}
	}
	return preds
}

// cfgEdge is one control-flow edge.
type cfgEdge struct{ from, to int }

// dfs runs an iterative depth-first search from the entry, returning the
// edges that close cycles (targets still on the DFS stack) and, when none
// exist, a reverse-topological finish order of the visited nodes.
func dfs(n int, succs [][]int) (cycleEdges []cfgEdge, finishOrder []int) {
	const (
		white = iota
		gray
		black
	)
	color := make([]int, n)
	type frame struct{ node, next int }
	var stack []frame
	color[0] = gray
	stack = append(stack, frame{node: 0})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(succs[f.node]) {
			v := succs[f.node][f.next]
			f.next++
			switch color[v] {
			case white:
				color[v] = gray
				stack = append(stack, frame{node: v})
			case gray:
				cycleEdges = append(cycleEdges, cfgEdge{from: f.node, to: v})
			}
			continue
		}
		color[f.node] = black
		finishOrder = append(finishOrder, f.node)
		stack = stack[:len(stack)-1]
	}
	return cycleEdges, finishOrder
}

// longestPath computes the exact worst-case instruction count of a
// loop-free program: the longest entry-to-HALT path in the DAG, walking
// nodes in the DFS finish order (children finish before parents).
func longestPath(finishOrder []int, succs [][]int) int64 {
	longest := map[int]int64{}
	for _, u := range finishOrder {
		best := int64(0)
		for _, v := range succs[u] {
			if l := longest[v]; l > best {
				best = l
			}
		}
		longest[u] = best + 1
	}
	return longest[0]
}

// LoaderVerifier returns the mobilecode.VerifyFunc production deploy paths
// install on their Loader: each program of a module is verified under the
// module's own host-table manifest and the deploying sandbox, with the
// [old, x] -> result calling convention.
func LoaderVerifier() mobilecode.VerifyFunc {
	return func(role string, p mobilecode.Program, hosts []mobilecode.HostFunc, sb mobilecode.Sandbox) error {
		if _, err := Program(p, DeployConfig(hosts, sb)); err != nil {
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
