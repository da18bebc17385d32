// Package inp implements the Interactive Negotiation Protocol of Section
// 3.3 (Figure 4): the framed message exchange between client, adaptation
// proxy, CDN, and application server. Every packet carries an INP header
// maintaining protocol integrity (magic, version, type, sequence number,
// body length); bodies are JSON for inspectability.
package inp

import (
	"encoding/json"
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

// msgTable is the one per-type table: the paper's name for every message,
// and for the hot ones a prototype of the body whose methods are its
// Version2 codec (nil = JSON only).
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
	MsgError:          {"ERROR", nil},
	MsgAppMetaPush:    {"APP_META_PUSH", nil},
	MsgAppMetaAck:     {"APP_META_ACK", nil},
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
	// Version is the INP protocol version carried in every header.
	Version = 1
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

// DecodeBody unmarshals a raw JSON body into a typed message.
func DecodeBody(raw []byte, v interface{}) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("inp: decoding body: %w", err)
	}
	return nil
}

// --- message bodies (Figure 4, bottom) ---

// InitReq opens a negotiation; its payload is the application request.
// ClientID optionally identifies an authenticated principal for the
// proxy's access-control policy (empty = anonymous).
type InitReq struct {
	AppID    string `json:"app_id"`
	Resource string `json:"resource"`
	ClientID string `json:"client_id,omitempty"`
	// WireVersion advertises the highest INP body encoding the client can
	// decode. Old decoders ignore the field; omitempty keeps old frames
	// byte-identical.
	WireVersion int `json:"inp_version,omitempty"`
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
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
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
	Dev  core.DevMeta  `json:"dev"`
	Ntwk core.NtwkMeta `json:"ntwk"`
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
	Dev             core.DevMeta  `json:"dev"`
	Ntwk            core.NtwkMeta `json:"ntwk"`
	SessionRequests int           `json:"session_requests"`
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
	PADs []core.PADMeta `json:"pads"`
}

func (PADMetaRep) wireType() MsgType { return MsgPADMetaRep }

func (m PADMetaRep) appendWire(e *encodeState) {
	e.appendCount(len(m.PADs), m.PADs == nil)
	for i := range m.PADs {
		e.appendPADMeta(&m.PADs[i])
	}
}

func (m *PADMetaRep) decodeWire(r wireReader) error {
	m.PADs = nil
	if n, ok := r.count(); ok {
		m.PADs = make([]core.PADMeta, n)
		for i := 0; i < n && r.err == nil; i++ {
			r.padMeta(&m.PADs[i])
		}
	}
	return r.done()
}

// PADDownloadReq asks a PAD server/edge for a module by id.
type PADDownloadReq struct {
	PADID string `json:"pad_id"`
	URL   string `json:"url"`
	// WireVersion advertises the highest INP frame version the requester
	// decodes (0 or 1 = JSON only). Old peers' JSON decoders ignore the
	// field; new peers answer hot replies in binary when it is >= Version2.
	WireVersion int `json:"inp_version,omitempty"`
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
	PADID  string `json:"pad_id"`
	Module []byte `json:"module"`
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
	AppID       string   `json:"app_id"`
	Resource    string   `json:"resource"`
	ProtocolIDs []string `json:"protocol_ids"`
	// HaveVersion tells the server which version of the resource the
	// client already holds (0 = none), enabling differential encoding.
	HaveVersion int `json:"have_version"`
	// WireVersion advertises the highest INP frame version the requester
	// decodes, as on PADDownloadReq.
	WireVersion int `json:"inp_version,omitempty"`
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
	Resource string `json:"resource"`
	Version  int    `json:"version"`
	PADID    string `json:"pad_id"`
	Payload  []byte `json:"payload"`
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
	Message string `json:"message"`
}

// AppMetaPush is the application server's topology push to the adaptation
// proxy ("The application server pushes new AppMeta to the negotiation
// manager when the protocol adaptation topology is first created or
// changed later").
type AppMetaPush struct {
	App core.AppMeta `json:"app"`
}

// AppMetaAck acknowledges a topology push.
type AppMetaAck struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}
