package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"fractal/internal/core"
	"fractal/internal/inp"
)

// Term says how a step terminates the connection, if it does.
type Term int

const (
	// TermNone: the session continues into the next step.
	TermNone Term = iota
	// TermServerClosed: the server drops the connection after this step's
	// replies (possibly zero of them); the driver's next read must fail
	// with a closed-stream error.
	TermServerClosed
	// TermDriverReject: the driver itself refuses a tampered inbound
	// frame with ErrSeqMismatch and abandons the connection.
	TermDriverReject
)

func (t Term) String() string {
	switch t {
	case TermNone:
		return "none"
	case TermServerClosed:
		return "server-closed"
	case TermDriverReject:
		return "driver-reject"
	}
	return fmt.Sprintf("Term(%d)", int(t))
}

// FrameExpect is the spec's prediction for one reply frame: its type and
// its sequence number (the server must never skip or repeat one), and for
// APP_REP the version its payload is encoded against.
type FrameExpect struct {
	Type inp.MsgType
	Seq  uint32
	Base int // APP_REP only
}

func (f FrameExpect) String() string {
	if f.Type == inp.MsgAppRep {
		return fmt.Sprintf("%v/seq%d/base%d", f.Type, f.Seq, f.Base)
	}
	return fmt.Sprintf("%v/seq%d", f.Type, f.Seq)
}

// StepExpect is the spec's prediction for one step.
type StepExpect struct {
	// QueueErr: staging must fail locally (OpQueueBad) and consume
	// nothing — no wire bytes, no sequence number.
	QueueErr bool
	// Replies the driver must read, in order.
	Replies []FrameExpect
	// Term is how (whether) the connection ends at this step.
	Term Term
	// CloseAfterWrite: the driver half-closes after writing (truncation).
	CloseAfterWrite bool
}

// Expect is the spec's prediction for a whole trace. Steps is a prefix of
// the trace's steps: everything after a terminating step is pruned, since
// no conforming client keeps writing into a dead connection.
type Expect struct {
	Steps []StepExpect
}

// stagedMsg is one message a step stages, before framing.
type stagedMsg struct {
	t    inp.MsgType
	body interface{}
}

// stepMessages maps a step to the messages a conforming client stages for
// it. The driver sends exactly these through the real inp.Conn and the
// model frames exactly these through the raw frame writer, so any
// disagreement between the two byte streams is a Conn framing bug.
func stepMessages(s Step) []stagedMsg {
	climeta := func() stagedMsg {
		env := envFor(s.Env)
		return stagedMsg{inp.MsgCliMetaRep, inp.CliMetaRep{Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: 75}}
	}
	switch s.Op {
	case OpInit:
		return []stagedMsg{{inp.MsgInitReq, inp.InitReq{AppID: appIDFor(s.App)}}}
	case OpCliMeta:
		return []stagedMsg{climeta()}
	case OpInitBurst:
		return []stagedMsg{
			{inp.MsgInitReq, inp.InitReq{AppID: appIDFor(s.App)}},
			climeta(),
		}
	case OpMetaPush:
		return []stagedMsg{{inp.MsgAppMetaPush, inp.AppMetaPush{App: pushMetaFor(s.Bad)}}}
	case OpAppReq:
		return []stagedMsg{{inp.MsgAppReq, inp.AppReq{
			AppID:       appIDFor(s.App),
			Resource:    resourceFor(s.Resource),
			ProtocolIDs: []string{protoFor(s.Proto)},
			HaveVersion: s.Have,
		}}}
	case OpPADReq:
		return []stagedMsg{{inp.MsgPADDownloadReq, inp.PADDownloadReq{PADID: padFor(s.PAD)}}}
	case OpClientError:
		return []stagedMsg{{inp.MsgError, inp.ErrorRep{Message: "client abort"}}}
	}
	return nil
}

// proxy session phases.
const (
	phaseOpen      = iota // awaiting a session opener (INIT_REQ or push)
	phaseAwaitMeta        // classic negotiation: awaiting CLI_META_REP
)

// model is the executable spec state while evaluating one trace: both
// endpoints' sequence counters, the proxy's session phase, and the frame
// history the mutation kinds draw from.
type model struct {
	tr Trace

	dSeq        uint32 // driver conn: next send seq - 1
	sSeq, sPeer uint32 // server conn: replies sent, last accepted request seq

	phase      int    // proxy only
	pendingApp string // proxy: AppID of the negotiation awaiting CLI_META_REP

	hist   [][]byte // post-mutation frames written, replay pool
	closed bool
}

// Eval runs the spec over a trace and returns the expected observable
// outcome. An error means the trace could not be evaluated (a harness
// bug), never a protocol outcome.
func Eval(tr Trace) (*Expect, error) {
	m := &model{tr: tr}
	ex := &Expect{}
	for _, s := range tr.Steps {
		if m.closed {
			break
		}
		st, err := m.step(s)
		if err != nil {
			return nil, err
		}
		ex.Steps = append(ex.Steps, *st)
	}
	return ex, nil
}

func (m *model) step(s Step) (*StepExpect, error) {
	st := &StepExpect{}
	switch s.Op {
	case OpSetTimeout:
		return st, nil
	case OpQueueBad:
		// Staging an unencodable body fails without consuming a sequence
		// number (bugfix #1): dSeq deliberately not incremented.
		st.QueueErr = true
		return st, nil
	}

	// Stage and frame the step's messages exactly as a conforming client
	// conn would.
	var frames [][]byte
	for _, msg := range stepMessages(s) {
		h := inp.Header{Version: inp.Version2, Type: msg.t, Seq: m.dSeq + 1}
		f, err := renderFrame(h, msg.body)
		if err != nil {
			return nil, fmt.Errorf("rendering %v: %w", msg.t, err)
		}
		m.dSeq++
		frames = append(frames, f)
	}
	out, closeAfter := applyOutMuts(s.Muts, frames, m.hist)
	m.hist = append(m.hist, out...)
	st.CloseAfterWrite = closeAfter

	// An inbound tamper the driver detects ends the trace before any of
	// this step's real replies are read: the injected frame fails the
	// sequence gate and a conforming client abandons the stream.
	if im, ok := hasInbound(s); ok && im.Kind == MutInDupReply && m.sSeq > 0 {
		st.Term = TermDriverReject
		m.closed = true
		return st, nil
	}

	// Feed the mutated byte stream to the spec server.
	var stream []byte
	for _, f := range out {
		stream = append(stream, f...)
	}
	rd := bytes.NewReader(stream)
	for rd.Len() > 0 {
		h, raw, err := readFrame(rd)
		if err != nil {
			// Malformed or incomplete frame: parse failures (a retired
			// header version among them) and EOF mid-header/mid-body all
			// close the connection without a reply.
			m.serverClose(st)
			break
		}
		if h.Seq != m.sPeer+1 {
			m.serverClose(st)
			break
		}
		m.sPeer = h.Seq
		if !m.dispatch(st, h, raw, rd) {
			break
		}
	}
	if closeAfter && st.Term == TermNone {
		// The driver half-closed after a truncated write; the leftover
		// partial frame above must already have closed the server. A
		// fully consumed stream here would mean the truncation vanished.
		return nil, fmt.Errorf("truncated step consumed cleanly")
	}
	return st, nil
}

// errRetiredVersion is the spec's refusal of a header version other than
// specVersion.
var errRetiredVersion = errors.New("conformance: retired header version")

// readFrame is the spec server's frame read: the real parser behind the
// spec's own statement of the header version, so a parser that accepted a
// retired version would diverge from the spec rather than agree with it.
func readFrame(rd *bytes.Reader) (inp.Header, []byte, error) {
	var hdr [frameHeaderLen]byte
	if n, _ := rd.ReadAt(hdr[:], rd.Size()-int64(rd.Len())); n > offVersion && hdr[offVersion] != specVersion {
		return inp.Header{}, nil, errRetiredVersion
	}
	return inp.ReadMessage(rd)
}

// dispatch runs one accepted frame through the target's session state
// machine, mirroring the real servers' serve loops decision for
// decision. It returns false when the connection closes.
func (m *model) dispatch(st *StepExpect, h inp.Header, raw []byte, rd *bytes.Reader) bool {
	switch m.tr.Target {
	case TargetProxy:
		return m.dispatchProxy(st, h, raw, rd)
	case TargetApp:
		return m.dispatchApp(st, h, raw)
	default:
		return m.dispatchPAD(st, h, raw)
	}
}

func (m *model) dispatchProxy(st *StepExpect, h inp.Header, raw []byte, rd *bytes.Reader) bool {
	if m.phase == phaseAwaitMeta {
		// negotiate is blocked in RecvInto(CLI_META_REP): an error frame,
		// a wrong type, or an undecodable body aborts the exchange with
		// no reply.
		if h.Type == inp.MsgError || h.Type != inp.MsgCliMetaRep {
			return m.serverClose(st)
		}
		var meta inp.CliMetaRep
		if inp.DecodeRaw(h, raw, &meta) != nil {
			return m.serverClose(st)
		}
		m.phase = phaseOpen
		return m.finishNegotiate(st, false)
	}
	switch h.Type {
	case inp.MsgAppMetaPush:
		var push inp.AppMetaPush
		if inp.DecodeRaw(h, raw, &push) != nil {
			return m.serverClose(st)
		}
		m.reply(st, inp.MsgAppMetaAck)
		if _, err := core.BuildPAT(push.App); err != nil {
			// Rejected topology: Ack{OK:false}, then the conn drops.
			return m.serverClose(st)
		}
		return true
	case inp.MsgInitReq:
		var req inp.InitReq
		if inp.DecodeRaw(h, raw, &req) != nil {
			return m.serverClose(st)
		}
		// The serving fast path triggers on pipelined input: the client
		// flushed CLI_META_REP behind INIT_REQ, and the server drains it
		// before any refusal or reply.
		fast := rd.Len() > 0
		if fast {
			h2, raw2, err := readFrame(rd)
			if err != nil {
				return m.serverClose(st)
			}
			if h2.Seq != m.sPeer+1 {
				return m.serverClose(st)
			}
			m.sPeer = h2.Seq
			if h2.Type == inp.MsgError || h2.Type != inp.MsgCliMetaRep {
				return m.serverClose(st)
			}
			var meta inp.CliMetaRep
			if inp.DecodeRaw(h2, raw2, &meta) != nil {
				return m.serverClose(st)
			}
		}
		if req.AppID == "" {
			m.reply(st, inp.MsgError)
			return m.serverClose(st)
		}
		m.pendingApp = req.AppID
		if !fast {
			m.reply(st, inp.MsgInitRep)
			m.reply(st, inp.MsgCliMetaReq)
			m.phase = phaseAwaitMeta
			return true
		}
		return m.finishNegotiate(st, true)
	default:
		// Anything else cannot open a session: in-band error, then drop.
		m.reply(st, inp.MsgError)
		return m.serverClose(st)
	}
}

// finishNegotiate emits the negotiation answer. On the fast path the
// queued INIT_REP and CLI_META_REQ ride in the same flush — ahead of the
// error frame if the negotiation fails, keeping the stream sequential.
func (m *model) finishNegotiate(st *StepExpect, fast bool) bool {
	if fast {
		m.reply(st, inp.MsgInitRep)
		m.reply(st, inp.MsgCliMetaReq)
	}
	if m.pendingApp == validApp {
		m.reply(st, inp.MsgPADMetaRep)
		return true
	}
	m.reply(st, inp.MsgError)
	return m.serverClose(st)
}

func (m *model) dispatchApp(st *StepExpect, h inp.Header, raw []byte) bool {
	if h.Type == inp.MsgError || h.Type != inp.MsgAppReq {
		return m.serverClose(st)
	}
	var req inp.AppReq
	if inp.DecodeRaw(h, raw, &req) != nil {
		return m.serverClose(st)
	}
	// Application-level refusals are in-band: the session survives them.
	if req.AppID != validApp {
		m.reply(st, inp.MsgError)
		return true
	}
	if !encodeOK(req) {
		m.reply(st, inp.MsgError)
		return true
	}
	// The world installs two versions, and the server holds two, so every
	// claimed version is held and the payload is encoded against it.
	m.reply(st, inp.MsgAppRep)
	st.Replies[len(st.Replies)-1].Base = req.HaveVersion
	return true
}

func (m *model) dispatchPAD(st *StepExpect, h inp.Header, raw []byte) bool {
	if h.Type == inp.MsgError || h.Type != inp.MsgPADDownloadReq {
		return m.serverClose(st)
	}
	var req inp.PADDownloadReq
	if inp.DecodeRaw(h, raw, &req) != nil {
		return m.serverClose(st)
	}
	path := req.URL
	if path == "" {
		path = "/pads/" + req.PADID
	}
	if !padPathOK(path) {
		m.reply(st, inp.MsgError)
		return true
	}
	m.reply(st, inp.MsgPADDownloadRep)
	return true
}

// reply records one server frame, sequence numbers dense.
func (m *model) reply(st *StepExpect, t inp.MsgType) {
	m.sSeq++
	st.Replies = append(st.Replies, FrameExpect{Type: t, Seq: m.sSeq})
}

func (m *model) serverClose(st *StepExpect) bool {
	st.Term = TermServerClosed
	m.closed = true
	return false
}

// deployedPADs is the spec's statement of what the world serves: the
// three builtin modules, deployed by the app server and published to the
// origin. NewWorld.check pins this list against the real fixtures.
var deployedPADs = map[string]bool{
	"pad-direct": true,
	"pad-gzip":   true,
	"pad-bitmap": true,
}

// encodeOK mirrors appserver.Server.Encode's refusal conditions for the
// worlds this spec builds: the PAD path must name a deployed module, the
// resource must exist, and the claimed version must not exceed the two
// installed corpus versions.
func encodeOK(req inp.AppReq) bool {
	found := false
	for _, id := range req.ProtocolIDs {
		mid := id
		if i := strings.IndexByte(id, '@'); i >= 0 {
			mid = id[:i]
		}
		if deployedPADs[mid] {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	if !resourceValid(req.Resource) {
		return false
	}
	return req.HaveVersion >= 0 && req.HaveVersion <= 2
}

func resourceValid(r string) bool {
	for i := 0; i < worldPages; i++ {
		if r == fmt.Sprintf("page-%03d", i) {
			return true
		}
	}
	return false
}

// padPathOK mirrors the origin's published object set.
func padPathOK(path string) bool {
	const prefix = "/pads/"
	return strings.HasPrefix(path, prefix) && deployedPADs[strings.TrimPrefix(path, prefix)]
}
