package inp

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"fractal/internal/core"
)

// goldenCase is one Version2 frame whose bytes are pinned in
// testdata/golden_v2.txt. Its first 21 frames were captured by running
// these cases through the FrameWriter of commit e308a4a (the last one with
// the hand-spelled codec); the next three, for the ERROR and topology-push
// codecs, were appended when those codecs were written. The three app_rep
// frames were re-captured when APP_REP gained its Base field, and
// app_rep_base, the one with a non-zero Base, was appended then. The file
// pins the wire format against drift that round-trip tests and the
// conformance suite cannot see: those compare the codec with itself, and
// both of its ends change together.
type goldenCase struct {
	name string
	t    MsgType
	body interface{} // pointer to the source value
}

// goldenBlob is a deterministic non-repeating payload.
func goldenBlob(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8 + 3)
	}
	return b
}

// goldenNaN is a quiet NaN with a payload, so a codec that canonicalizes
// NaNs (as a float→text→float trip would) is caught too.
var goldenNaN = math.Float64frombits(0x7ff8000000000abc)

func goldenCases() []goldenCase {
	var digest [20]byte
	for i := range digest {
		digest[i] = byte(0xf0 - i)
	}
	pad := func(id string, children []string) core.PADMeta {
		return core.PADMeta{
			ID: id, Version: "1.2", Protocol: "proto-" + id, Size: 48213,
			Overhead: core.PADOverhead{
				ServerCompStd: 1500 * time.Microsecond, ClientCompStd: -3 * time.Millisecond,
				TrafficBytes: 1 << 40, UpstreamBytes: -17,
			},
			Digest: digest, URL: "/pads/" + id, Parent: "root", Children: children, Alias: "alias-" + id,
		}
	}
	return []goldenCase{
		{"init_req", MsgInitReq, &InitReq{AppID: "webapp", Resource: "mail/inbox", ClientID: "alice", WireVersion: 2}},
		{"init_req_zero", MsgInitReq, &InitReq{}},
		{"init_rep_ok", MsgInitRep, &InitRep{OK: true}},
		{"init_rep_refused", MsgInitRep, &InitRep{Reason: "access denied"}},
		{"cli_meta_req_zero", MsgCliMetaReq, &CliMetaReq{}},
		{"cli_meta_req", MsgCliMetaReq, &CliMetaReq{
			Dev:  core.DevMeta{OSType: "linux", CPUType: "x86", CPUMHz: 2400.5, MemMB: 512},
			Ntwk: core.NtwkMeta{NetworkType: "LAN", BandwidthKbps: 1e5},
		}},
		{"cli_meta_rep_nan", MsgCliMetaRep, &CliMetaRep{
			Dev:             core.DevMeta{OSType: "wince", CPUType: "arm", CPUMHz: goldenNaN, MemMB: -64},
			Ntwk:            core.NtwkMeta{NetworkType: "Bluetooth", BandwidthKbps: math.Inf(-1)},
			SessionRequests: 40,
		}},
		{"pad_meta_rep_nil", MsgPADMetaRep, &PADMetaRep{}},
		{"pad_meta_rep_empty", MsgPADMetaRep, &PADMetaRep{PADs: []core.PADMeta{}}},
		{"pad_meta_rep_multi", MsgPADMetaRep, &PADMetaRep{PADs: []core.PADMeta{
			pad("gzip", nil), pad("bitmap", []string{}), pad("varyblock", []string{"gzip", ""}), {},
		}}},
		{"pad_download_req", MsgPADDownloadReq, &PADDownloadReq{PADID: "gzip", URL: "/pads/gzip", WireVersion: 2}},
		{"pad_download_rep_nil", MsgPADDownloadRep, &PADDownloadRep{PADID: "gzip"}},
		{"pad_download_rep_empty", MsgPADDownloadRep, &PADDownloadRep{PADID: "gzip", Module: []byte{}}},
		{"pad_download_rep_small", MsgPADDownloadRep, &PADDownloadRep{PADID: "gzip", Module: goldenBlob(spliceMin - 1)}},
		{"pad_download_rep_spliced", MsgPADDownloadRep, &PADDownloadRep{PADID: "gzip", Module: goldenBlob(spliceMin)}},
		{"app_req_nil_ids", MsgAppReq, &AppReq{AppID: "webapp", Resource: "a", HaveVersion: -1}},
		{"app_req_empty_ids", MsgAppReq, &AppReq{AppID: "webapp", ProtocolIDs: []string{}, WireVersion: 2}},
		{"app_req", MsgAppReq, &AppReq{AppID: "webapp", Resource: "page/7", ProtocolIDs: []string{"gzip", "", "bitmap"}, HaveVersion: 1 << 33, WireVersion: 2}},
		{"app_rep_nil_payload", MsgAppRep, &AppRep{Resource: "page/7", Version: 3, PADID: "direct"}},
		{"app_rep_small", MsgAppRep, &AppRep{Resource: "page/7", Version: -3, PADID: "gzip", Payload: []byte("payload")}},
		{"app_rep_spliced", MsgAppRep, &AppRep{Resource: "page/7", Version: 4, PADID: "bitmap", Payload: goldenBlob(5000)}},
		{"error", MsgError, &ErrorRep{Message: "unknown application \"ghost\""}},
		{"app_meta_push", MsgAppMetaPush, &AppMetaPush{App: core.AppMeta{AppID: "webapp", PADs: []core.PADMeta{
			pad("direct", nil), pad("gzip", []string{"direct"}),
		}}}},
		{"app_meta_ack_refused", MsgAppMetaAck, &AppMetaAck{Reason: "core: AppMeta needs an application id"}},
		{"app_rep_base", MsgAppRep, &AppRep{Resource: "page/7", Version: 9, Base: 8, PADID: "varyblock", Payload: []byte("delta")}},
	}
}

// encodeGolden renders case i as one flushed Version2 frame with seq i+1.
func encodeGolden(t *testing.T, i int, gc goldenCase) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := writeFrame(&wire, Header{Version: Version2, Type: gc.t, Seq: uint32(i + 1)}, gc.body); err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return wire.Bytes()
}

func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/golden_v2.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		if golden[name], err = hex.DecodeString(hx); err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// sameValue is reflect.DeepEqual that also accepts the one NaN the golden
// set carries, compared by bits.
func sameValue(got, want interface{}) bool {
	g, ok := got.(*CliMetaRep)
	if !ok {
		return reflect.DeepEqual(got, want)
	}
	gv, wv := *g, *want.(*CliMetaRep)
	if math.Float64bits(gv.Dev.CPUMHz) != math.Float64bits(wv.Dev.CPUMHz) {
		return false
	}
	gv.Dev.CPUMHz, wv.Dev.CPUMHz = 0, 0
	return reflect.DeepEqual(gv, wv)
}

// TestGoldenV2Frames pins the Version2 wire format: every case encodes to
// exactly the parent commit's bytes and those bytes decode back to the
// source value — nil vs empty slices, a payloaded NaN, spliced payloads
// and a multi-PAD array included.
func TestGoldenV2Frames(t *testing.T) {
	golden := readGolden(t)
	cases := goldenCases()
	if len(golden) != len(cases) {
		t.Errorf("golden file has %d frames, case table %d", len(golden), len(cases))
	}
	covered := map[MsgType]bool{}
	for i, gc := range cases {
		covered[gc.t] = true
		want, ok := golden[gc.name]
		if !ok {
			t.Errorf("%s: no golden frame", gc.name)
			continue
		}
		if got := encodeGolden(t, i, gc); !bytes.Equal(got, want) {
			t.Errorf("%s: encoded frame drifted from the golden bytes\n got %x\nwant %x", gc.name, clip(got), clip(want))
		}
		h, raw, err := ReadMessage(bytes.NewReader(want))
		if err != nil {
			t.Errorf("%s: reading golden frame: %v", gc.name, err)
			continue
		}
		if h != (Header{Version: Version2, Type: gc.t, Seq: uint32(i + 1)}) {
			t.Errorf("%s: golden header %+v", gc.name, h)
		}
		out := reflect.New(reflect.TypeOf(gc.body).Elem()).Interface()
		if err := DecodeRaw(h, raw, out); err != nil {
			t.Errorf("%s: decoding golden frame: %v", gc.name, err)
		} else if !sameValue(out, gc.body) {
			t.Errorf("%s: golden frame decoded to\n got %+v\nwant %+v", gc.name, out, gc.body)
		}
	}
	for mt := MsgInvalid + 1; mt < msgMax; mt++ {
		if !covered[mt] {
			t.Errorf("no golden frame for %v", mt)
		}
	}
}

// TestGoldenV2Batch queues every golden case behind one Flush: the
// vectored interleave of assembly-buffer segments and spliced payloads
// must produce exactly the golden frames back to back.
func TestGoldenV2Batch(t *testing.T) {
	golden := readGolden(t)
	var want, got bytes.Buffer
	fw := NewFrameWriter(&got)
	for i, gc := range goldenCases() {
		want.Write(golden[gc.name])
		if err := fw.WriteMessage(Header{Version: Version2, Type: gc.t, Seq: uint32(i + 1)}, gc.body); err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("batched golden frames diverge: %d bytes, want %d", got.Len(), want.Len())
	}
}

// clip keeps a failure message readable when a spliced frame drifts.
func clip(b []byte) []byte {
	if len(b) > 96 {
		return b[:96]
	}
	return b
}
