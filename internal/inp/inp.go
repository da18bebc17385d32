// Package inp implements the Interactive Negotiation Protocol of Section
// 3.3 (Figure 4): the framed message exchange between client, adaptation
// proxy, CDN, and application server. Every packet carries an INP header
// maintaining protocol integrity (magic, version, type, sequence number,
// body length); bodies use the one binary codec of binary.go, described
// once per message next to its struct below.
package inp

import (
	"fmt"

	"fractal/internal/core"
)

// MsgType identifies an INP message (Figure 4's message formats).
type MsgType uint8

// The message types of the negotiation and application exchanges.
const (
	MsgInvalid MsgType = iota
	MsgInitReq
	MsgInitRep
	MsgCliMetaReq
	MsgCliMetaRep
	MsgPADMetaRep
	MsgPADDownloadReq
	MsgPADDownloadRep
	MsgAppReq
	MsgAppRep
	MsgError
	MsgAppMetaPush
	MsgAppMetaAck
	msgMax
)

// msgTable is the one per-type table: the paper's name for every message
// and a prototype of its body, whose methods are the body's codec.
var msgTable = [msgMax]struct {
	name string
	wire wireDecoder
}{
	MsgInitReq:        {"INIT_REQ", new(InitReq)},
	MsgInitRep:        {"INIT_REP", new(InitRep)},
	MsgCliMetaReq:     {"CLI_META_REQ", new(CliMetaReq)},
	MsgCliMetaRep:     {"CLI_META_REP", new(CliMetaRep)},
	MsgPADMetaRep:     {"PAD_META_REP", new(PADMetaRep)},
	MsgPADDownloadReq: {"PAD_DOWNLOAD_REQ", new(PADDownloadReq)},
	MsgPADDownloadRep: {"PAD_DOWNLOAD_REP", new(PADDownloadRep)},
	MsgAppReq:         {"APP_REQ", new(AppReq)},
	MsgAppRep:         {"APP_REP", new(AppRep)},
	MsgError:          {"ERROR", new(ErrorRep)},
	MsgAppMetaPush:    {"APP_META_PUSH", new(AppMetaPush)},
	MsgAppMetaAck:     {"APP_META_ACK", new(AppMetaAck)},
}

// String returns the paper's message name.
func (t MsgType) String() string {
	if t < msgMax && msgTable[t].name != "" {
		return msgTable[t].name
	}
	return fmt.Sprintf("MSG(%d)", uint8(t))
}

// Protocol constants.
const (
	// Version2 is the INP protocol version: every header carries it, and a
	// frame stamped with any other version is refused at the header.
	Version2 = 2
	// MaxBody bounds a message body; larger frames are rejected before
	// allocation.
	MaxBody = 64 << 20
	// headerLen is the fixed frame header size: magic(4) version(1)
	// type(1) reserved(2) seq(4) length(4).
	headerLen = 16
)

var magic = [4]byte{'I', 'N', 'P', '1'}

// Header is the INP header segment present in each packet.
type Header struct {
	Version uint8
	Type    MsgType
	Seq     uint32
}

// --- message bodies (Figure 4, bottom) ---

// InitReq opens a negotiation; its payload is the application request.
// ClientID optionally identifies an authenticated principal for the
// proxy's access-control policy (empty = anonymous).
type InitReq struct {
	AppID    string
	Resource string
	ClientID string
	// WireVersion is informational: no receiver reads it. It stays in the
	// body so the frame layout the golden frames pin is unchanged.
	WireVersion int
}

func (InitReq) wireType() MsgType { return MsgInitReq }

func (m InitReq) appendWire(e *encodeState) {
	e.appendString(m.AppID)
	e.appendString(m.Resource)
	e.appendString(m.ClientID)
	e.appendInt(m.WireVersion)
}

func (m *InitReq) decodeWire(r wireReader) error {
	m.AppID = r.str()
	m.Resource = r.str()
	m.ClientID = r.str()
	m.WireVersion = r.int_()
	return r.done()
}

// InitRep acknowledges INIT_REQ.
type InitRep struct {
	OK     bool
	Reason string
}

func (InitRep) wireType() MsgType { return MsgInitRep }

func (m InitRep) appendWire(e *encodeState) {
	e.appendBool(m.OK)
	e.appendString(m.Reason)
}

func (m *InitRep) decodeWire(r wireReader) error {
	m.OK = r.bool_()
	m.Reason = r.str()
	return r.done()
}

// CliMetaReq carries empty DevMeta/NtwkMeta templates "to be filled by
// the client".
type CliMetaReq struct {
	Dev  core.DevMeta
	Ntwk core.NtwkMeta
}

func (CliMetaReq) wireType() MsgType { return MsgCliMetaReq }

func (m CliMetaReq) appendWire(e *encodeState) {
	e.appendDevMeta(&m.Dev)
	e.appendNtwkMeta(&m.Ntwk)
}

func (m *CliMetaReq) decodeWire(r wireReader) error {
	r.devMeta(&m.Dev)
	r.ntwkMeta(&m.Ntwk)
	return r.done()
}

// CliMetaRep returns the client's probed metadata plus the expected
// session length used to amortize PAD downloads.
type CliMetaRep struct {
	Dev             core.DevMeta
	Ntwk            core.NtwkMeta
	SessionRequests int
}

func (CliMetaRep) wireType() MsgType { return MsgCliMetaRep }

func (m CliMetaRep) appendWire(e *encodeState) {
	e.appendDevMeta(&m.Dev)
	e.appendNtwkMeta(&m.Ntwk)
	e.appendInt(m.SessionRequests)
}

func (m *CliMetaRep) decodeWire(r wireReader) error {
	r.devMeta(&m.Dev)
	r.ntwkMeta(&m.Ntwk)
	m.SessionRequests = r.int_()
	return r.done()
}

// PADMetaRep delivers the negotiated PAD metadata array (redacted: no tree
// links), with digests and URLs inserted by the distribution manager.
type PADMetaRep struct {
	PADs []core.PADMeta
}

func (PADMetaRep) wireType() MsgType { return MsgPADMetaRep }

func (m PADMetaRep) appendWire(e *encodeState) {
	e.appendPADMetas(m.PADs)
}

func (m *PADMetaRep) decodeWire(r wireReader) error {
	m.PADs = r.padMetas()
	return r.done()
}

// PADDownloadReq asks a PAD server/edge for a module by id.
type PADDownloadReq struct {
	PADID string
	URL   string
	// WireVersion is informational, as on InitReq.
	WireVersion int
}

func (PADDownloadReq) wireType() MsgType { return MsgPADDownloadReq }

func (m PADDownloadReq) appendWire(e *encodeState) {
	e.appendString(m.PADID)
	e.appendString(m.URL)
	e.appendInt(m.WireVersion)
}

func (m *PADDownloadReq) decodeWire(r wireReader) error {
	m.PADID = r.str()
	m.URL = r.str()
	m.WireVersion = r.int_()
	return r.done()
}

// PADDownloadRep returns the packed mobile-code module.
type PADDownloadRep struct {
	PADID  string
	Module []byte
}

func (PADDownloadRep) wireType() MsgType { return MsgPADDownloadRep }

func (m PADDownloadRep) appendWire(e *encodeState) {
	e.appendString(m.PADID)
	e.appendBlob(m.Module)
}

func (m *PADDownloadRep) decodeWire(r wireReader) error {
	m.PADID = r.str()
	m.Module = r.blob()
	return r.done()
}

// AppReq starts (or continues) the application session, carrying the
// negotiated protocol identifications so the server selects matching PADs.
type AppReq struct {
	AppID       string
	Resource    string
	ProtocolIDs []string
	// HaveVersion tells the server which version of the resource the
	// client already holds (0 = none), enabling differential encoding.
	HaveVersion int
	// WireVersion is informational, as on InitReq.
	WireVersion int
}

func (AppReq) wireType() MsgType { return MsgAppReq }

func (m AppReq) appendWire(e *encodeState) {
	e.appendString(m.AppID)
	e.appendString(m.Resource)
	e.appendStrings(m.ProtocolIDs)
	e.appendInt(m.HaveVersion)
	e.appendInt(m.WireVersion)
}

func (m *AppReq) decodeWire(r wireReader) error {
	m.AppID = r.str()
	m.Resource = r.str()
	m.ProtocolIDs = r.strs()
	m.HaveVersion = r.int_()
	m.WireVersion = r.int_()
	return r.done()
}

// AppRep returns the adapted application content.
type AppRep struct {
	Resource string
	Version  int
	PADID    string
	Payload  []byte
}

func (AppRep) wireType() MsgType { return MsgAppRep }

func (m AppRep) appendWire(e *encodeState) {
	e.appendString(m.Resource)
	e.appendInt(m.Version)
	e.appendString(m.PADID)
	e.appendBlob(m.Payload)
}

func (m *AppRep) decodeWire(r wireReader) error {
	m.Resource = r.str()
	m.Version = r.int_()
	m.PADID = r.str()
	m.Payload = r.blob()
	return r.done()
}

// ErrorRep reports a failure to the peer.
type ErrorRep struct {
	Message string
}

func (ErrorRep) wireType() MsgType { return MsgError }

func (m ErrorRep) appendWire(e *encodeState) {
	e.appendString(m.Message)
}

func (m *ErrorRep) decodeWire(r wireReader) error {
	m.Message = r.str()
	return r.done()
}

// AppMetaPush is the application server's topology push to the adaptation
// proxy ("The application server pushes new AppMeta to the negotiation
// manager when the protocol adaptation topology is first created or
// changed later").
type AppMetaPush struct {
	App core.AppMeta
}

func (AppMetaPush) wireType() MsgType { return MsgAppMetaPush }

func (m AppMetaPush) appendWire(e *encodeState) {
	e.appendString(m.App.AppID)
	e.appendPADMetas(m.App.PADs)
}

func (m *AppMetaPush) decodeWire(r wireReader) error {
	m.App.AppID = r.str()
	m.App.PADs = r.padMetas()
	return r.done()
}

// AppMetaAck acknowledges a topology push.
type AppMetaAck struct {
	OK     bool
	Reason string
}

func (AppMetaAck) wireType() MsgType { return MsgAppMetaAck }

func (m AppMetaAck) appendWire(e *encodeState) {
	e.appendBool(m.OK)
	e.appendString(m.Reason)
}

func (m *AppMetaAck) decodeWire(r wireReader) error {
	m.OK = r.bool_()
	m.Reason = r.str()
	return r.done()
}
