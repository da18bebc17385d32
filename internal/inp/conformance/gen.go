package conformance

import "math/rand"

// Gen deterministically derives traces from a seed: the same seed always
// yields the same suite, so a CI failure replays locally bit-for-bit.
type Gen struct {
	rng *rand.Rand
}

// NewGen returns a generator over its own seeded source.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

// Valid emits a well-formed trace: one to three protocol units against a
// random target, every parameter drawn from the valid vocabulary, with an
// occasional failed staging attempt or timeout adjustment mixed in (both
// must be invisible on the wire).
func (g *Gen) Valid() Trace {
	tr := Trace{Target: Target(g.rng.Intn(3))}
	units := 1 + g.rng.Intn(3)
	for u := 0; u < units; u++ {
		switch tr.Target {
		case TargetProxy:
			switch g.rng.Intn(4) {
			case 0, 1:
				tr.Steps = append(tr.Steps, Step{Op: OpInitBurst, Env: g.rng.Intn(2)})
			case 2:
				tr.Steps = append(tr.Steps, Step{Op: OpInit}, Step{Op: OpCliMeta, Env: g.rng.Intn(2)})
			default:
				tr.Steps = append(tr.Steps, Step{Op: OpMetaPush})
			}
		case TargetApp:
			tr.Steps = append(tr.Steps, Step{Op: OpAppReq, Have: g.rng.Intn(3)})
		default:
			tr.Steps = append(tr.Steps, Step{Op: OpPADReq})
		}
	}
	if g.rng.Intn(4) == 0 {
		i := g.rng.Intn(len(tr.Steps) + 1)
		tr.Steps = append(tr.Steps[:i:i], append([]Step{{Op: OpQueueBad}}, tr.Steps[i:]...)...)
	}
	if g.rng.Intn(5) == 0 {
		tr.Steps = append([]Step{{Op: OpSetTimeout, Ms: 2000}}, tr.Steps...)
	}
	return tr
}

// Mutants derives up to n single-fault variants of a valid base trace:
// each carries exactly one semantic or wire-level fault, so a divergence
// pins a single cause.
func (g *Gen) Mutants(base Trace, n int) []Trace {
	out := make([]Trace, 0, n)
	for tries := 0; len(out) < n && tries < 50*n; tries++ {
		if m, ok := g.mutate(base); ok {
			out = append(out, m)
		}
	}
	return out
}

// mutate applies one fault to a clone of base. Faults that can race the
// transport are constrained to stay deterministic: a mutation that makes
// the server reply and then drop the connection is only planted where no
// unread client bytes remain (an unread byte at close turns a TCP FIN
// into an RST that can destroy the in-flight reply), which is why
// type/version rewrites land on the last frame of a step's batch and
// truncation ends the trace.
func (g *Gen) mutate(base Trace) (Trace, bool) {
	tr := base.clone()
	ws := wireSteps(tr)
	if len(ws) == 0 {
		return tr, false
	}
	i := ws[g.rng.Intn(len(ws))]
	s := &tr.Steps[i]
	last := frameCount(s.Op) - 1
	switch g.rng.Intn(10) {
	case 0: // invalid parameter: the semantic refusals
		return g.paramMutant(tr, i)
	case 1: // in-band client error frame at an arbitrary point
		j := g.rng.Intn(len(tr.Steps) + 1)
		tr.Steps = append(tr.Steps[:j:j], append([]Step{{Op: OpClientError}}, tr.Steps[j:]...)...)
	case 2:
		s.Muts = append(s.Muts, Mutation{Kind: MutDupFrame, Frame: g.rng.Intn(last + 1)})
	case 3:
		s.Muts = append(s.Muts, Mutation{Kind: MutReplay, Sel: uint32(g.rng.Intn(64))})
	case 4:
		deltas := []int32{-1, 1, 2, 7}
		s.Muts = append(s.Muts, Mutation{
			Kind: MutSeqDelta, Frame: g.rng.Intn(last + 1), Delta: deltas[g.rng.Intn(len(deltas))],
		})
	case 5:
		types := []uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 200}
		s.Muts = append(s.Muts, Mutation{Kind: MutWrongType, Frame: last, Type: types[g.rng.Intn(len(types))]})
	case 6: // retired header version
		s.Muts = append(s.Muts, Mutation{Kind: MutVersion1, Frame: last})
	case 7:
		s.Muts = append(s.Muts, Mutation{Kind: MutTrailing, Frame: g.rng.Intn(last + 1), Sel: uint32(g.rng.Intn(256))})
	case 8: // truncation is terminal: cut the last frame and half-close
		tr.Steps = tr.Steps[:i+1]
		s.Muts = append(s.Muts, Mutation{Kind: MutTruncate, Sel: uint32(g.rng.Intn(4096))})
	case 9: // duplicated inbound reply; needs reply history to clone from
		if i == 0 || ws[0] >= i {
			return tr, false
		}
		s.Muts = append(s.Muts, Mutation{Kind: MutInDupReply})
	}
	return tr, true
}

// paramMutant flips one selector on step i to an invalid value.
func (g *Gen) paramMutant(tr Trace, i int) (Trace, bool) {
	s := &tr.Steps[i]
	switch s.Op {
	case OpInit, OpInitBurst:
		s.App = 1 + g.rng.Intn(2)
	case OpAppReq:
		switch g.rng.Intn(5) {
		case 0:
			s.App = 1 + g.rng.Intn(2)
		case 1:
			s.Resource = 1
		case 2:
			s.Have = 3
		default:
			s.Proto = 1
		}
	case OpPADReq:
		s.PAD = 1
	case OpMetaPush:
		s.Bad = true
	default:
		return tr, false
	}
	return tr, true
}

// wireSteps returns the indexes of steps that put frames on the wire.
func wireSteps(tr Trace) []int {
	var ws []int
	for i, s := range tr.Steps {
		switch s.Op {
		case OpQueueBad, OpSetTimeout:
		default:
			ws = append(ws, i)
		}
	}
	return ws
}

// frameCount is how many frames a step's batch stages.
func frameCount(op TraceOp) int {
	if op == OpInitBurst {
		return 2
	}
	return 1
}
