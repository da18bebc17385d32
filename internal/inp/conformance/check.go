package conformance

import (
	"bytes"
	"fmt"

	"fractal/internal/inp"
)

// CheckTrace is the differential oracle for one trace: evaluate the spec,
// replay the trace on every stack, and require (a) each stack to match
// the spec's frame-by-frame expectation and (b) all stacks to match each
// other byte-for-byte. nil means the trace conforms everywhere.
func CheckTrace(stacks []Stack, tr Trace) error {
	ex, err := Eval(tr)
	if err != nil {
		return fmt.Errorf("spec eval: %w", err)
	}
	outs := make([]*Outcome, len(stacks))
	for i, st := range stacks {
		out, err := Run(st, tr, ex)
		if err != nil {
			return fmt.Errorf("stack %s: %w", st.Name(), err)
		}
		if err := compareToModel(ex, out); err != nil {
			return fmt.Errorf("stack %s diverges from spec: %w", out.Stack, err)
		}
		outs[i] = out
	}
	for i := 1; i < len(outs); i++ {
		if err := compareOutcomes(outs[0], outs[i]); err != nil {
			return fmt.Errorf("stacks disagree: %w", err)
		}
	}
	return nil
}

// compareToModel checks one stack's observation against the spec.
func compareToModel(ex *Expect, out *Outcome) error {
	if len(out.Steps) != len(ex.Steps) {
		return fmt.Errorf("observed %d steps, spec expects %d", len(out.Steps), len(ex.Steps))
	}
	terminated := false
	for i, est := range ex.Steps {
		so := out.Steps[i]
		if so.QueueErr != est.QueueErr {
			return fmt.Errorf("step %d: queue error = %v, spec expects %v", i, so.QueueErr, est.QueueErr)
		}
		if so.SendErr != "" {
			return fmt.Errorf("step %d: send failed (%s), spec expects the write to land", i, so.SendErr)
		}
		if len(so.Replies) != len(est.Replies) {
			return fmt.Errorf("step %d: observed %d replies %v, spec expects %d %v",
				i, len(so.Replies), so.Replies, len(est.Replies), est.Replies)
		}
		for j, want := range est.Replies {
			got := so.Replies[j]
			if got.Err != "" {
				return fmt.Errorf("step %d reply %d: got error %q, spec expects %v", i, j, got.Err, want)
			}
			if got.Type != want.Type || got.Seq != want.Seq {
				return fmt.Errorf("step %d reply %d: got %v, spec expects %v", i, j, got, want)
			}
			if want.Type == inp.MsgAppRep {
				var rep inp.AppRep
				if err := inp.DecodeRaw(inp.Header{Version: inp.Version2, Type: got.Type, Seq: got.Seq}, got.Body, &rep); err != nil {
					return fmt.Errorf("step %d reply %d: %w", i, j, err)
				}
				if rep.Base != want.Base {
					return fmt.Errorf("step %d reply %d: APP_REP encoded against v%d, spec expects v%d", i, j, rep.Base, want.Base)
				}
			}
		}
		wantTerm := obsNone
		switch est.Term {
		case TermServerClosed:
			wantTerm = errClosed
		case TermDriverReject:
			wantTerm = errSeq
		}
		if so.TermErr != wantTerm {
			return fmt.Errorf("step %d: terminal observation %q, spec expects %q", i, so.TermErr, wantTerm)
		}
		if est.Term != TermNone {
			terminated = true
		}
	}
	if terminated {
		if out.DrainErr != obsNone {
			return fmt.Errorf("drain observation %q on a terminated trace", out.DrainErr)
		}
	} else if out.DrainErr != errClosed {
		return fmt.Errorf("drain observation %q, spec expects a clean close", out.DrainErr)
	}
	return nil
}

// compareOutcomes requires two stacks' observations to be identical,
// reply body bytes included: the TCP writev path and the netsim path
// must produce the same octets.
func compareOutcomes(a, b *Outcome) error {
	if len(a.Steps) != len(b.Steps) {
		return fmt.Errorf("%s observed %d steps, %s observed %d", a.Stack, len(a.Steps), b.Stack, len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.QueueErr != sb.QueueErr || sa.SendErr != sb.SendErr || sa.TermErr != sb.TermErr {
			return fmt.Errorf("step %d: %s=(queue %v, send %q, term %q) vs %s=(queue %v, send %q, term %q)",
				i, a.Stack, sa.QueueErr, sa.SendErr, sa.TermErr, b.Stack, sb.QueueErr, sb.SendErr, sb.TermErr)
		}
		if len(sa.Replies) != len(sb.Replies) {
			return fmt.Errorf("step %d: %s got %d replies, %s got %d", i, a.Stack, len(sa.Replies), b.Stack, len(sb.Replies))
		}
		for j := range sa.Replies {
			ra, rb := sa.Replies[j], sb.Replies[j]
			if ra.Err != rb.Err || ra.Type != rb.Type || ra.Seq != rb.Seq {
				return fmt.Errorf("step %d reply %d: %s got %v, %s got %v", i, j, a.Stack, ra, b.Stack, rb)
			}
			if !bytes.Equal(ra.Body, rb.Body) {
				return fmt.Errorf("step %d reply %d (%v): body bytes differ between %s (%d B) and %s (%d B)",
					i, j, ra.Type, a.Stack, len(ra.Body), b.Stack, len(rb.Body))
			}
		}
	}
	if a.DrainErr != b.DrainErr {
		return fmt.Errorf("drain: %s=%q vs %s=%q", a.Stack, a.DrainErr, b.Stack, b.DrainErr)
	}
	return nil
}
