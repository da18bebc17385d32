package inp

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"fractal/internal/core"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := InitReq{AppID: "webapp", Resource: "page-001"}
	if err := writeFrame(&buf, Header{Version: Version2, Type: MsgInitReq, Seq: 7}, want); err != nil {
		t.Fatal(err)
	}
	h, raw, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgInitReq || h.Seq != 7 || h.Version != Version2 {
		t.Fatalf("header = %+v", h)
	}
	var got InitReq
	if err := DecodeRaw(h, raw, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("body = %+v, want %+v", got, want)
	}
}

func TestAllMessageTypesRoundTrip(t *testing.T) {
	bodies := map[MsgType]interface{}{
		MsgInitReq:        InitReq{AppID: "a", Resource: "r"},
		MsgInitRep:        InitRep{OK: true},
		MsgCliMetaReq:     CliMetaReq{},
		MsgCliMetaRep:     CliMetaRep{Dev: core.DevMeta{OSType: "os", CPUType: "c", CPUMHz: 500, MemMB: 64}, Ntwk: core.NtwkMeta{NetworkType: "LAN", BandwidthKbps: 1000}, SessionRequests: 75},
		MsgPADMetaRep:     PADMetaRep{PADs: []core.PADMeta{{ID: "pad-gzip", Protocol: "gzip", URL: "/pads/pad-gzip"}}},
		MsgPADDownloadReq: PADDownloadReq{PADID: "pad-gzip", URL: "/pads/pad-gzip"},
		MsgPADDownloadRep: PADDownloadRep{PADID: "pad-gzip", Module: []byte{1, 2, 3}},
		MsgAppReq:         AppReq{AppID: "a", Resource: "r", ProtocolIDs: []string{"pad-gzip"}, HaveVersion: 1},
		MsgAppRep:         AppRep{Resource: "r", Version: 2, PADID: "pad-gzip", Payload: []byte{9}},
		MsgError:          ErrorRep{Message: "boom"},
		MsgAppMetaPush:    AppMetaPush{App: core.AppMeta{AppID: "a", PADs: []core.PADMeta{{ID: "pad-gzip", Protocol: "gzip"}}}},
		MsgAppMetaAck:     AppMetaAck{OK: true},
	}
	var buf bytes.Buffer
	seq := uint32(0)
	for mt, body := range bodies {
		seq++
		if err := writeFrame(&buf, Header{Version: Version2, Type: mt, Seq: seq}, body); err != nil {
			t.Fatalf("%v: %v", mt, err)
		}
	}
	for i := 0; i < len(bodies); i++ {
		h, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if _, ok := bodies[h.Type]; !ok {
			t.Fatalf("read unexpected type %v", h.Type)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes", buf.Len())
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgInitReq.String() != "INIT_REQ" || MsgPADMetaRep.String() != "PAD_META_REP" {
		t.Fatal("paper message names not preserved")
	}
	if !strings.HasPrefix(MsgType(200).String(), "MSG(") {
		t.Fatal("unknown type string")
	}
}

func TestWriteMessageRejectsInvalidType(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Header{Version: Version2, Type: MsgInvalid}, nil); err == nil {
		t.Fatal("invalid type written")
	}
	if err := writeFrame(&buf, Header{Version: Version2, Type: msgMax}, nil); err == nil {
		t.Fatal("out-of-range type written")
	}
}

func TestReadMessageRejectsCorruptFrames(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, Header{Version: Version2, Type: MsgInitRep, Seq: 1}, InitRep{OK: true}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, _, err := ReadMessage(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Any version but Version2, the retired v1 included.
	for _, v := range []byte{1, 99} {
		bad = append([]byte(nil), good...)
		bad[4] = v
		if _, _, err := ReadMessage(bytes.NewReader(bad)); err == nil {
			t.Errorf("version %d accepted", v)
		}
	}
	// Unknown type.
	bad = append([]byte(nil), good...)
	bad[5] = 250
	if _, _, err := ReadMessage(bytes.NewReader(bad)); err == nil {
		t.Error("unknown type accepted")
	}
	// Oversized length.
	bad = append([]byte(nil), good...)
	binary.BigEndian.PutUint32(bad[12:16], MaxBody+1)
	if _, _, err := ReadMessage(bytes.NewReader(bad)); err == nil {
		t.Error("oversized body accepted")
	}
	// Truncated body.
	if _, _, err := ReadMessage(bytes.NewReader(good[:len(good)-2])); err == nil {
		t.Error("truncated body accepted")
	}
	// Truncated header.
	if _, _, err := ReadMessage(bytes.NewReader(good[:8])); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestConnCallOverPipe(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		sc := NewConn(server)
		var req InitReq
		if err := sc.RecvInto(MsgInitReq, &req); err != nil {
			done <- err
			return
		}
		if req.AppID != "webapp" {
			done <- &net.AddrError{Err: "wrong app", Addr: req.AppID}
			return
		}
		done <- sc.Send(MsgInitRep, InitRep{OK: true})
	}()
	cc := NewConn(client)
	var rep InitRep
	if err := cc.Call(MsgInitReq, InitReq{AppID: "webapp", Resource: "r"}, MsgInitRep, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatal("negative reply")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnPeerErrorSurfaces(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		sc := NewConn(server)
		if _, _, err := sc.Recv(); err != nil {
			return
		}
		_ = sc.SendError("negotiation refused")
	}()
	cc := NewConn(client)
	var rep InitRep
	err := cc.Call(MsgInitReq, InitReq{AppID: "x"}, MsgInitRep, &rep)
	if err == nil || !strings.Contains(err.Error(), "negotiation refused") {
		t.Fatalf("err = %v, want peer error", err)
	}
}

func TestConnWrongTypeRejected(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		sc := NewConn(server)
		if _, _, err := sc.Recv(); err != nil {
			return
		}
		_ = sc.Send(MsgAppRep, AppRep{})
	}()
	cc := NewConn(client)
	var rep InitRep
	err := cc.Call(MsgInitReq, InitReq{AppID: "x"}, MsgInitRep, &rep)
	if err == nil || !strings.Contains(err.Error(), "expected INIT_REP") {
		t.Fatalf("err = %v, want type mismatch", err)
	}
}

func TestConnSequenceNumbersIncrease(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	for i := 0; i < 3; i++ {
		if err := c.Send(MsgInitRep, InitRep{OK: true}); err != nil {
			t.Fatal(err)
		}
	}
	var last uint32
	for i := 0; i < 3; i++ {
		h, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if h.Seq <= last {
			t.Fatalf("seq %d not increasing after %d", h.Seq, last)
		}
		last = h.Seq
	}
}

// Property: arbitrary InitReq bodies survive the frame round trip.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(app, res string, seq uint32) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, Header{Version: Version2, Type: MsgInitReq, Seq: seq}, InitReq{AppID: app, Resource: res}); err != nil {
			return false
		}
		h, raw, err := ReadMessage(&buf)
		if err != nil || h.Seq != seq {
			return false
		}
		var got InitReq
		if err := DecodeRaw(h, raw, &got); err != nil {
			return false
		}
		return got.AppID == app && got.Resource == res
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadMessage never panics on arbitrary bytes.
func TestReadMessageGarbageNeverPanicsProperty(t *testing.T) {
	f := func(junk []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadMessage panicked: %v", r)
			}
		}()
		_, _, _ = ReadMessage(bytes.NewReader(junk))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
