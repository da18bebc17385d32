// Package conformance is an executable state-machine specification of the
// INP protocol and a differential trace-testing harness around it.
//
// The spec (model.go) describes what a conforming INP server observable
// from the client side must do: the Figure 4 negotiation exchange
// (INIT_REQ -> INIT_REP + CLI_META_REQ -> CLI_META_REP -> PAD_META_REP,
// including the pipelined-burst variant answered in one vectored write),
// the PAD fetch and app session request/reply loops, re-negotiation on a
// persistent connection, in-band error frames, and the one header version:
// a frame stamped with any version but Version2 is refused at the header,
// closing the connection with no reply.
//
// A seeded generator (gen.go) emits valid traces plus systematic
// single-fault mutants: duplicated and replayed frames, stale/skipped
// sequence numbers, wrong message types, trailing bytes inside a body,
// truncated frames, retired-version (v1) patches, error-frame
// interleavings, and tampered inbound replies. The differential driver
// (driver.go) replays each trace against the real TCP stack and the
// in-memory netsim stack and the checker (check.go) asserts two ways:
// each stack matches the model's expected frame-by-frame outcome, and the
// two stacks match each other byte-for-byte. Failing traces are shrunk
// (shrink.go) to a minimal counterexample.
package conformance

import (
	"fmt"
	"strings"
)

// Target selects which INP server a trace talks to.
type Target int

const (
	// TargetProxy is the adaptation proxy front end (negotiation,
	// re-negotiation, AppMeta push).
	TargetProxy Target = iota
	// TargetApp is the application server (APP_REQ/APP_REP sessions).
	TargetApp
	// TargetPAD is the CDN PAD server (PAD_DOWNLOAD_REQ/REP).
	TargetPAD
)

func (t Target) String() string {
	switch t {
	case TargetProxy:
		return "proxy"
	case TargetApp:
		return "app"
	case TargetPAD:
		return "pad"
	}
	return fmt.Sprintf("Target(%d)", int(t))
}

// TraceOp is one client-side action in a trace.
type TraceOp int

const (
	// OpInit sends INIT_REQ alone (the classic exchange; the following
	// step should be OpCliMeta).
	OpInit TraceOp = iota
	// OpCliMeta sends CLI_META_REP, answering the server's CLI_META_REQ.
	OpCliMeta
	// OpInitBurst pipelines INIT_REQ and CLI_META_REP in one flush (the
	// serving fast path: the whole negotiation is answered in one write).
	OpInitBurst
	// OpMetaPush sends APP_META_PUSH (an application-server topology
	// push; valid on the proxy only).
	OpMetaPush
	// OpAppReq sends APP_REQ (application server).
	OpAppReq
	// OpPADReq sends PAD_DOWNLOAD_REQ (PAD server).
	OpPADReq
	// OpClientError sends an in-band MsgError from the client.
	OpClientError
	// OpQueueBad stages a body that cannot be encoded. Nothing may reach
	// the wire and — the regression pinned by bugfix #1 — no sequence
	// number may be consumed.
	OpQueueBad
	// OpSetTimeout calls SetTimeout(Ms) on the driver conn; Ms == 0
	// disables the bound (and, per bugfix #3, clears any armed deadline).
	OpSetTimeout
)

func (o TraceOp) String() string {
	switch o {
	case OpInit:
		return "init"
	case OpCliMeta:
		return "climeta"
	case OpInitBurst:
		return "burst"
	case OpMetaPush:
		return "push"
	case OpAppReq:
		return "appreq"
	case OpPADReq:
		return "padreq"
	case OpClientError:
		return "clierr"
	case OpQueueBad:
		return "queuebad"
	case OpSetTimeout:
		return "settimeout"
	}
	return fmt.Sprintf("TraceOp(%d)", int(o))
}

// MutKind is a systematic trace mutation. Outbound kinds rewrite the
// byte stream the client writes; inbound kinds tamper with the reply
// stream the client reads.
type MutKind int

const (
	// MutNone is the zero mutation (ignored).
	MutNone MutKind = iota
	// MutDupFrame duplicates frame Frame of the step's batch in place.
	MutDupFrame
	// MutReplay appends a clone of an earlier frame (selected by Sel from
	// everything sent so far) after the step's batch.
	MutReplay
	// MutSeqDelta adds Delta to the sequence number of frame Frame.
	MutSeqDelta
	// MutWrongType overwrites the type byte of frame Frame with Type.
	MutWrongType
	// MutVersion1 stamps the retired header version 1 on frame Frame; the
	// server must refuse it at the header.
	MutVersion1
	// MutTrailing appends 1+Sel%16 junk bytes inside the body of frame
	// Frame (the length field is bumped to cover them).
	MutTrailing
	// MutTruncate cuts 1..len-1 bytes (by Sel) off the end of the step's
	// last frame and half-closes the connection after the write, so the
	// server sees EOF mid-header or mid-body.
	MutTruncate
	// MutInDupReply injects a duplicate of the last accepted reply in
	// front of the step's real replies.
	MutInDupReply
	// MutInDelay delays delivery of the step's replies by Ms
	// milliseconds (exposes stale absolute deadlines; bugfix #3).
	MutInDelay
)

func (k MutKind) String() string {
	switch k {
	case MutNone:
		return "none"
	case MutDupFrame:
		return "dup"
	case MutReplay:
		return "replay"
	case MutSeqDelta:
		return "seqdelta"
	case MutWrongType:
		return "wrongtype"
	case MutVersion1:
		return "v1"
	case MutTrailing:
		return "trailing"
	case MutTruncate:
		return "truncate"
	case MutInDupReply:
		return "in-dup"
	case MutInDelay:
		return "in-delay"
	}
	return fmt.Sprintf("MutKind(%d)", int(k))
}

// Mutation is one applied fault. Frame indexes into the step's staged
// frames; Sel, Delta, Type, and Ms parameterize the kinds above.
type Mutation struct {
	Kind  MutKind
	Frame int
	Sel   uint32
	Delta int32
	Type  uint8
	Ms    int
}

func (m Mutation) String() string {
	return fmt.Sprintf("%v{f=%d sel=%d d=%d t=%d ms=%d}", m.Kind, m.Frame, m.Sel, m.Delta, m.Type, m.Ms)
}

// Step is one client action plus its parameters. The integer selectors
// index small fixed vocabularies (see world.go): index 0 is always a
// valid choice, higher indexes are invalid or hostile variants — except
// Have, a version number, valid up to the world's two versions.
type Step struct {
	Op TraceOp
	// App selects the application id: 0 = the installed app, 1 = an
	// unknown app, 2 = empty (protocol violation).
	App int
	// Env selects the client environment: 0 = desktop/LAN, 1 = PDA/BT.
	Env int
	// Resource selects the requested resource: 0 = valid, 1 = missing.
	Resource int
	// Proto selects the negotiated PAD path: 0 = deployed, 1 = bogus.
	Proto int
	// Have is the version an OpAppReq claims to hold: 0 = none, 1 and 2
	// the world's two versions, 3 = newer than any (refused).
	Have int
	// PAD selects the PAD to download: 0 = published, 1 = missing.
	PAD int
	// Bad marks an OpMetaPush carrying an invalid topology.
	Bad bool
	// Ms is the OpSetTimeout argument in milliseconds.
	Ms int
	// Muts are the mutations applied to this step.
	Muts []Mutation
}

func (s Step) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", s.Op)
	if s.App != 0 {
		fmt.Fprintf(&b, " app=%d", s.App)
	}
	if s.Env != 0 {
		fmt.Fprintf(&b, " env=%d", s.Env)
	}
	if s.Resource != 0 {
		fmt.Fprintf(&b, " res=%d", s.Resource)
	}
	if s.Proto != 0 {
		fmt.Fprintf(&b, " proto=%d", s.Proto)
	}
	if s.Have != 0 {
		fmt.Fprintf(&b, " have=%d", s.Have)
	}
	if s.PAD != 0 {
		fmt.Fprintf(&b, " pad=%d", s.PAD)
	}
	if s.Bad {
		b.WriteString(" bad")
	}
	if s.Op == OpSetTimeout {
		fmt.Fprintf(&b, " ms=%d", s.Ms)
	}
	for _, m := range s.Muts {
		fmt.Fprintf(&b, " !%v", m)
	}
	return b.String()
}

// Trace is one complete client session against a target: the steps a
// client performs on a single persistent connection.
type Trace struct {
	Target Target
	Steps  []Step
}

func (t Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace target=%v\n", t.Target)
	for i, s := range t.Steps {
		fmt.Fprintf(&b, "  %2d: %v\n", i, s)
	}
	return b.String()
}

// clone returns a deep copy (shrinking mutates candidates freely).
func (t Trace) clone() Trace {
	out := t
	out.Steps = make([]Step, len(t.Steps))
	for i, s := range t.Steps {
		out.Steps[i] = s
		if s.Muts != nil {
			out.Steps[i].Muts = append([]Mutation(nil), s.Muts...)
		}
	}
	return out
}
