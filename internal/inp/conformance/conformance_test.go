package conformance

import (
	"net"
	"sync"
	"testing"

	"fractal/internal/faultnet"
)

// The world and both stacks are built once and shared by every test in
// the package: server state is append-only (topology pushes re-register
// the same metadata), and sharing one world guarantees both stacks serve
// byte-identical PAD modules despite the nondeterministic signing key.
var (
	setupOnce sync.Once
	setupErr  error
	theWorld  *World
	tcpStack  *TCPStack
	pipeStack *PipeStack
)

func bothStacks(t testing.TB) []Stack {
	t.Helper()
	setupOnce.Do(func() {
		if theWorld, setupErr = NewWorld(); setupErr != nil {
			return
		}
		if tcpStack, setupErr = NewTCPStack(theWorld); setupErr != nil {
			return
		}
		pipeStack = NewPipeStack(theWorld)
	})
	if setupErr != nil {
		t.Fatalf("building conformance world: %v", setupErr)
	}
	return []Stack{tcpStack, pipeStack}
}

// checkOrShrink fails with a shrunk counterexample on divergence.
func checkOrShrink(t *testing.T, ss []Stack, tr Trace) {
	t.Helper()
	err := CheckTrace(ss, tr)
	if err == nil {
		return
	}
	min := Shrink(tr, func(c Trace) bool { return CheckTrace(ss, c) != nil }, 200)
	minErr := CheckTrace(ss, min)
	t.Fatalf("conformance divergence: %v\n\nshrunk counterexample (%v):\n%v", err, minErr, min)
}

// suiteBases sizes the fixed-seed suite. The CI-smoke budget checks at
// least 10k traces; short and race runs keep a representative sample.
func suiteBases() int {
	if testing.Short() || raceEnabled {
		return 60
	}
	return 1250
}

// TestConformanceFixedSeed is the differential suite: seeded valid
// traces, seven single-fault mutants each, every trace replayed on the
// TCP stack and the netsim stack against the executable spec.
func TestConformanceFixedSeed(t *testing.T) {
	ss := bothStacks(t)
	g := NewGen(0x46726163)
	checked := 0
	for b, bases := 0, suiteBases(); b < bases; b++ {
		base := g.Valid()
		for _, tr := range append([]Trace{base}, g.Mutants(base, 7)...) {
			checkOrShrink(t, ss, tr)
			checked++
		}
	}
	if !testing.Short() && !raceEnabled && checked < 10000 {
		t.Fatalf("CI smoke checked %d traces, want >= 10000", checked)
	}
}

// faultedStack composes the conformance driver with the faultnet
// injector: every dialed conn carries the same scripted fault with the
// same seed, so both stacks take byte-identical damage.
type faultedStack struct {
	inner Stack
	fault faultnet.Fault
	seed  int64
}

func (f faultedStack) Name() string { return f.inner.Name() }

func (f faultedStack) Dial(tgt Target) (net.Conn, error) {
	nc, err := f.inner.Dial(tgt)
	if err != nil {
		return nil, err
	}
	return faultedConn{Conn: faultnet.WrapConn(nc, f.fault, f.seed), raw: nc}, nil
}

// faultedConn forwards the half-close the driver uses to say goodbye;
// the fault layer does not model shutdown(WR).
type faultedConn struct {
	*faultnet.Conn
	raw net.Conn
}

func (f faultedConn) CloseWrite() error {
	if cw, ok := f.raw.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// TestConformanceFaultComposition replays valid traces with deterministic
// transport damage injected under the driver. The damaged runs cannot be
// compared to the spec (the spec describes an undamaged transport), but
// the two stacks must still observe identical outcomes: fault handling
// may not depend on which transport the bytes crossed. The corrupt
// offsets deliberately avoid frame length fields — corrupting a length
// makes the reader wait for bytes that never come, which is a timeout on
// both stacks but a slow one.
func TestConformanceFaultComposition(t *testing.T) {
	ss := bothStacks(t)
	faults := []faultnet.Fault{
		{Kind: faultnet.Corrupt, After: 4},            // first reply's version byte
		{Kind: faultnet.Corrupt, After: 17, Count: 2}, // inside the first reply body
		{Kind: faultnet.Truncate, After: 20},          // EOF mid-reply
		{Kind: faultnet.Reset, After: 60},             // reset mid-session
	}
	g := NewGen(0x70616473)
	n := 12
	if testing.Short() || raceEnabled {
		n = 4
	}
	for i := 0; i < n; i++ {
		base := g.Valid()
		ex, err := Eval(base)
		if err != nil {
			t.Fatalf("spec eval:\n%v%v", base, err)
		}
		for _, fault := range faults {
			outs := make([]*Outcome, len(ss))
			for j, s := range ss {
				out, rerr := Run(faultedStack{inner: s, fault: fault, seed: 7}, base, ex)
				if rerr != nil {
					t.Fatalf("fault %v/%d on %s: %v\n%v", fault.Kind, fault.After, s.Name(), rerr, base)
				}
				outs[j] = out
			}
			if err := compareOutcomes(outs[0], outs[1]); err != nil {
				t.Fatalf("stacks disagree under identical %v/%d damage: %v\n%v",
					fault.Kind, fault.After, err, base)
			}
		}
	}
}
