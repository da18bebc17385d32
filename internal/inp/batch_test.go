package inp

import (
	"bytes"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"fractal/internal/arena"
	"fractal/internal/core"
)

// FuzzFrameBatch pins the tentpole equivalence: a batch of JSON frames
// queued through FrameWriter and emitted by one Flush is byte-identical
// to the same frames written sequentially with WriteMessage.
func FuzzFrameBatch(f *testing.F) {
	f.Add("webapp", "mail/inbox", 3, []byte("payload"))
	f.Add("", "", 0, []byte(nil))
	f.Add("a", string(bytes.Repeat([]byte("r"), 300)), -9, bytes.Repeat([]byte("z"), 9000))
	f.Fuzz(func(t *testing.T, appID, resource string, n int, payload []byte) {
		type frame struct {
			t    MsgType
			body interface{}
		}
		frames := []frame{
			{MsgInitReq, InitReq{AppID: appID, Resource: resource}},
			{MsgInitRep, InitRep{OK: n%2 == 0, Reason: appID}},
			{MsgCliMetaRep, CliMetaRep{SessionRequests: n}},
			{MsgAppRep, AppRep{Resource: resource, Version: n, Payload: payload}},
			{MsgError, ErrorRep{Message: resource}},
		}
		var sequential bytes.Buffer
		seq := uint32(0)
		for _, fr := range frames {
			seq++
			if err := writeFrame(&sequential, Header{Version: Version, Type: fr.t, Seq: seq}, fr.body); err != nil {
				t.Fatalf("sequential WriteMessage(%v): %v", fr.t, err)
			}
		}
		var batched bytes.Buffer
		fw := NewFrameWriter(&batched)
		seq = 0
		for _, fr := range frames {
			seq++
			if err := fw.WriteMessage(Header{Version: Version, Type: fr.t, Seq: seq}, fr.body); err != nil {
				t.Fatalf("batched WriteMessage(%v): %v", fr.t, err)
			}
		}
		if batched.Len() != 0 {
			t.Fatal("frames reached the stream before Flush")
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sequential.Bytes(), batched.Bytes()) {
			t.Fatalf("batched output diverges from sequential: %d vs %d bytes", batched.Len(), sequential.Len())
		}
	})
}

// binaryRoundTrip encodes body as one Version2 frame and decodes it back
// into out, exercising the full frame path (header parse included).
func binaryRoundTrip(t *testing.T, mt MsgType, body, out interface{}) {
	t.Helper()
	var wire bytes.Buffer
	fw := NewFrameWriter(&wire)
	if err := fw.WriteMessage(Header{Version: Version2, Type: mt, Seq: 1}, body); err != nil {
		t.Fatalf("binary WriteMessage(%v): %v", mt, err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	h, raw, err := ReadMessage(&wire)
	if err != nil {
		t.Fatalf("reading binary %v frame: %v", mt, err)
	}
	if h.Version != Version2 || h.Type != mt {
		t.Fatalf("header mangled: %+v", h)
	}
	if err := decodeV2(mt, raw, out); err != nil {
		t.Fatalf("decoding binary %v body: %v", mt, err)
	}
}

// jsonRoundTrip runs the same body through the JSON wire path.
func jsonRoundTrip(t *testing.T, mt MsgType, body, out interface{}) {
	t.Helper()
	var wire bytes.Buffer
	if err := writeFrame(&wire, Header{Version: Version, Type: mt, Seq: 1}, body); err != nil {
		t.Fatalf("json WriteMessage(%v): %v", mt, err)
	}
	_, raw, err := ReadMessage(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeBody(raw, out); err != nil {
		t.Fatal(err)
	}
}

// FuzzBinaryBodyDifferential pins the binary fast-path semantically
// identical to JSON: for every hot body type, a binary round trip must
// reproduce the original value exactly, and (for JSON-representable
// inputs) agree field-for-field with a JSON round trip of the same value,
// including the nil-vs-empty distinctions JSON encodes as null vs ""/[].
func FuzzBinaryBodyDifferential(f *testing.F) {
	f.Add("app", "res", "p1", "p2", 2, 3, []byte("module"), byte(0))
	f.Add("", "", "", "", 0, 0, []byte(nil), byte(3))
	f.Add("x", "y", "", "q", -5, 1<<30, bytes.Repeat([]byte{0xff, 0}, 5000), byte(1))
	f.Fuzz(func(t *testing.T, appID, resource, p1, p2 string, hv, wv int, blob []byte, flags byte) {
		var pids []string
		switch flags % 3 {
		case 1:
			pids = []string{}
		case 2:
			pids = []string{p1, p2}
		}
		if flags&4 != 0 && blob == nil {
			blob = []byte{}
		}
		jsonSafe := utf8.ValidString(appID) && utf8.ValidString(resource) &&
			utf8.ValidString(p1) && utf8.ValidString(p2)
		check := func(mt MsgType, orig, bin, js interface{}) {
			t.Helper()
			binaryRoundTrip(t, mt, orig, bin)
			if !reflect.DeepEqual(bin, orig) {
				t.Fatalf("%v binary round trip diverged:\n got %+v\nwant %+v", mt, bin, orig)
			}
			if !jsonSafe {
				return // JSON sanitizes invalid UTF-8; binary is exact
			}
			jsonRoundTrip(t, mt, orig, js)
			if !reflect.DeepEqual(bin, js) {
				t.Fatalf("%v binary and JSON round trips disagree:\n bin %+v\njson %+v", mt, bin, js)
			}
		}
		check(MsgAppReq,
			&AppReq{AppID: appID, Resource: resource, ProtocolIDs: pids, HaveVersion: hv, WireVersion: wv},
			&AppReq{}, &AppReq{})
		check(MsgAppRep,
			&AppRep{Resource: resource, Version: hv, PADID: appID, Payload: blob},
			&AppRep{}, &AppRep{})
		check(MsgPADDownloadReq,
			&PADDownloadReq{PADID: appID, URL: resource, WireVersion: wv},
			&PADDownloadReq{}, &PADDownloadReq{})
		check(MsgPADDownloadRep,
			&PADDownloadRep{PADID: appID, Module: blob},
			&PADDownloadRep{}, &PADDownloadRep{})
	})
}

// FuzzBinaryNegotiationDifferential extends the differential pin to the
// negotiation-burst bodies: metadata structs with floats, durations, a
// fixed-width digest, and nested PADMeta arrays. NaN is normalized to
// zero up front (reflect.DeepEqual cannot compare it; see
// TestBinaryFloatSpecials for the NaN/Inf wire behaviour), and JSON
// comparison is skipped for the non-finite values json.Marshal rejects.
func FuzzBinaryNegotiationDifferential(f *testing.F) {
	f.Add("app", "cli", "GPRS", 2100.5, 42.25, int64(100), int64(-7), 3, []byte("digest-seed-bytes-20"), byte(2))
	f.Add("", "", "", 0.0, 0.0, int64(0), int64(0), 0, []byte(nil), byte(0))
	f.Add("x", "y", "z", math.Inf(1), -1e300, int64(1)<<60, int64(-1)<<60, -1, bytes.Repeat([]byte{0xee}, 64), byte(5))
	f.Fuzz(func(t *testing.T, appID, clientID, netType string, mhz, kbps float64, d1, d2 int64, n int, dig []byte, flags byte) {
		if math.IsNaN(mhz) {
			mhz = 0
		}
		if math.IsNaN(kbps) {
			kbps = 0
		}
		dev := core.DevMeta{OSType: appID, CPUType: netType, CPUMHz: mhz, MemMB: n}
		ntwk := core.NtwkMeta{NetworkType: netType, BandwidthKbps: kbps}
		pad := core.PADMeta{
			ID: appID, Version: clientID, Protocol: netType, Size: d1,
			Overhead: core.PADOverhead{
				ServerCompStd: time.Duration(d1), ClientCompStd: time.Duration(d2),
				TrafficBytes: d2, UpstreamBytes: d1,
			},
			URL: clientID, Parent: appID, Alias: netType,
		}
		copy(pad.Digest[:], dig)
		switch flags % 3 {
		case 1:
			pad.Children = []string{}
		case 2:
			pad.Children = []string{appID, clientID}
		}
		var pads []core.PADMeta
		switch flags / 3 % 3 {
		case 1:
			pads = []core.PADMeta{}
		case 2:
			pads = []core.PADMeta{pad, pad}
		}
		jsonSafe := utf8.ValidString(appID) && utf8.ValidString(clientID) && utf8.ValidString(netType) &&
			!math.IsInf(mhz, 0) && !math.IsInf(kbps, 0)
		check := func(mt MsgType, orig, bin, js interface{}) {
			t.Helper()
			binaryRoundTrip(t, mt, orig, bin)
			if !reflect.DeepEqual(bin, orig) {
				t.Fatalf("%v binary round trip diverged:\n got %+v\nwant %+v", mt, bin, orig)
			}
			if !jsonSafe {
				return
			}
			jsonRoundTrip(t, mt, orig, js)
			if !reflect.DeepEqual(bin, js) {
				t.Fatalf("%v binary and JSON round trips disagree:\n bin %+v\njson %+v", mt, bin, js)
			}
		}
		check(MsgInitReq,
			&InitReq{AppID: appID, Resource: netType, ClientID: clientID, WireVersion: n},
			&InitReq{}, &InitReq{})
		check(MsgInitRep,
			&InitRep{OK: flags&8 != 0, Reason: clientID},
			&InitRep{}, &InitRep{})
		check(MsgCliMetaReq,
			&CliMetaReq{Dev: dev, Ntwk: ntwk},
			&CliMetaReq{}, &CliMetaReq{})
		check(MsgCliMetaRep,
			&CliMetaRep{Dev: dev, Ntwk: ntwk, SessionRequests: n},
			&CliMetaRep{}, &CliMetaRep{})
		check(MsgPADMetaRep,
			&PADMetaRep{PADs: pads},
			&PADMetaRep{}, &PADMetaRep{})
	})
}

// TestBinaryFloatSpecials pins the binary codec's edge over JSON on
// non-finite floats: NaN and the infinities round-trip bit-exact, where
// json.Marshal simply refuses them.
func TestBinaryFloatSpecials(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		orig := &CliMetaReq{Dev: core.DevMeta{CPUMHz: f}, Ntwk: core.NtwkMeta{BandwidthKbps: f}}
		var got CliMetaReq
		binaryRoundTrip(t, MsgCliMetaReq, orig, &got)
		if math.Float64bits(got.Dev.CPUMHz) != math.Float64bits(f) ||
			math.Float64bits(got.Ntwk.BandwidthKbps) != math.Float64bits(f) {
			t.Errorf("float %v (bits %#x) did not round-trip bit-exact: got %v/%v",
				f, math.Float64bits(f), got.Dev.CPUMHz, got.Ntwk.BandwidthKbps)
		}
	}
}

// FuzzBinaryDecodeGarbage pins that hostile binary bodies never panic and
// never silently succeed with trailing bytes.
func FuzzBinaryDecodeGarbage(f *testing.F) {
	f.Add([]byte{0x01, 0x61, 0x00, 0x00, 0x00}, byte(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, byte(1))
	f.Fuzz(func(t *testing.T, raw []byte, which byte) {
		switch which % 9 {
		case 0:
			_ = decodeV2(MsgAppReq, raw, &AppReq{})
		case 1:
			_ = decodeV2(MsgAppRep, raw, &AppRep{})
		case 2:
			_ = decodeV2(MsgPADDownloadReq, raw, &PADDownloadReq{})
		case 3:
			_ = decodeV2(MsgPADDownloadRep, raw, &PADDownloadRep{})
		case 4:
			_ = decodeV2(MsgInitReq, raw, &InitReq{})
		case 5:
			_ = decodeV2(MsgInitRep, raw, &InitRep{})
		case 6:
			_ = decodeV2(MsgCliMetaReq, raw, &CliMetaReq{})
		case 7:
			_ = decodeV2(MsgCliMetaRep, raw, &CliMetaRep{})
		case 8:
			_ = decodeV2(MsgPADMetaRep, raw, &PADMetaRep{})
		}
	})
}

// TestFrameWriterSpliceInterleaving pins the vectored path: a batch
// mixing JSON frames with a binary frame whose module is large enough to
// splice must coalesce to exactly the concatenation of the frames flushed
// one at a time.
func TestFrameWriterSpliceInterleaving(t *testing.T) {
	module := bytes.Repeat([]byte{0xab}, spliceMin+100)
	frames := []struct {
		h    Header
		body interface{}
	}{
		{Header{Version: Version, Type: MsgInitRep, Seq: 1}, InitRep{OK: true}},
		{Header{Version: Version2, Type: MsgPADDownloadRep, Seq: 2}, &PADDownloadRep{PADID: "p", Module: module}},
		{Header{Version: Version, Type: MsgError, Seq: 3}, ErrorRep{Message: "tail"}},
	}
	var want bytes.Buffer
	for _, fr := range frames {
		fw := NewFrameWriter(&want)
		if err := fw.WriteMessage(fr.h, fr.body); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	fw := NewFrameWriter(&got)
	for _, fr := range frames {
		if err := fw.WriteMessage(fr.h, fr.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("spliced batch diverges: %d vs %d bytes", got.Len(), want.Len())
	}
	// And the spliced frame still decodes.
	r := bytes.NewReader(got.Bytes())
	for i := 0; i < 3; i++ {
		if _, _, err := ReadMessage(r); err != nil {
			t.Fatalf("frame %d unreadable: %v", i, err)
		}
	}
}

// TestConnSessionPipelineDetection pins the serving-path fast path: after
// one Recv from a flushed two-frame burst, InputPending reports the
// second frame already buffered.
func TestConnSessionPipelineDetection(t *testing.T) {
	var wire bytes.Buffer
	cc := NewConn(&wire)
	if err := cc.Queue(MsgInitReq, InitReq{AppID: "app"}); err != nil {
		t.Fatal(err)
	}
	if err := cc.Queue(MsgCliMetaRep, CliMetaRep{SessionRequests: 4}); err != nil {
		t.Fatal(err)
	}
	if err := cc.Flush(); err != nil {
		t.Fatal(err)
	}
	sess := arena.AcquireSession()
	defer sess.Release()
	sc := NewConnSession(&wire, sess)
	var init InitReq
	if err := sc.RecvInto(MsgInitReq, &init); err != nil {
		t.Fatal(err)
	}
	if init.AppID != "app" {
		t.Fatalf("init decoded as %+v", init)
	}
	if !sc.InputPending() {
		t.Fatal("pipelined frame not detected after first Recv")
	}
	var meta CliMetaRep
	if err := sc.RecvInto(MsgCliMetaRep, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.SessionRequests != 4 {
		t.Fatalf("meta decoded as %+v", meta)
	}
	if sc.InputPending() {
		t.Fatal("InputPending true after stream drained")
	}
}

// TestConnBinaryNegotiationUpgrade walks the version negotiation end to
// end over a real duplex pipe: the first request is JSON with a
// WireVersion advertisement, the server enables binary, its reply arrives
// as a Version2 frame, and the client's second request upgrades to binary
// automatically.
func TestConnBinaryNegotiationUpgrade(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		sess := arena.AcquireSession()
		defer sess.Release()
		sc := NewConnSession(server, sess)
		for i := 0; i < 2; i++ {
			var req AppReq
			if err := sc.RecvInto(MsgAppReq, &req); err != nil {
				done <- err
				return
			}
			if req.WireVersion >= Version2 {
				sc.EnableBinary()
			}
			if err := sc.Send(MsgAppRep, &AppRep{Resource: req.Resource, Version: i + 1, Payload: []byte(req.AppID)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	cc := NewConn(client)
	if cc.BinaryEnabled() {
		t.Fatal("client started in binary mode")
	}
	var rep AppRep
	req := &AppReq{AppID: "app", Resource: "res", WireVersion: Version2}
	if err := cc.Call(MsgAppReq, req, MsgAppRep, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || string(rep.Payload) != "app" {
		t.Fatalf("first reply %+v", rep)
	}
	if !cc.BinaryEnabled() {
		t.Fatal("client did not upgrade after a Version2 reply")
	}
	if err := cc.Call(MsgAppReq, req, MsgAppRep, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 {
		t.Fatalf("second reply %+v", rep)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSessionConnRejectsHostileHeader keeps the hostile-length discipline
// on the session read path: a header claiming 64 MB with a truncated body
// must fail without reserving the claimed size.
func TestSessionConnRejectsHostileHeader(t *testing.T) {
	var wire bytes.Buffer
	hdr := make([]byte, headerLen)
	copy(hdr, magic[:])
	hdr[4] = Version
	hdr[5] = uint8(MsgAppReq)
	hdr[8+3] = 1 // seq 1
	hdr[12] = 0x04
	wire.Write(hdr) // claims 0x04000000 = 64 MB, delivers nothing
	sess := arena.AcquireSession()
	defer sess.Release()
	sc := NewConnSession(&wire, sess)
	if _, _, err := sc.Recv(); err == nil {
		t.Fatal("truncated 64 MB claim accepted")
	}
}

// TestBatchedFramingSteadyStateAllocs pins the arena promise on the write
// path: a warm queue+flush of a JSON burst stays within two allocations
// (the JSON encoder's own scratch), and the binary fast path allocates
// nothing at all.
func TestBatchedFramingSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	initReq := &InitReq{AppID: "app", Resource: "res"}
	rep := &AppRep{Resource: "res", Version: 3, PADID: "pad", Payload: bytes.Repeat([]byte("x"), 256)}
	fw := NewFrameWriter(io.Discard)
	warm := func(fn func()) float64 {
		for i := 0; i < 16; i++ {
			fn()
		}
		return testing.AllocsPerRun(200, fn)
	}
	jsonBurst := func() {
		if err := fw.WriteMessage(Header{Version: Version, Type: MsgInitReq, Seq: 1}, initReq); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteMessage(Header{Version: Version, Type: MsgInitRep, Seq: 2}, InitRep{OK: true}); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := warm(jsonBurst); avg > 2 {
		t.Errorf("warm JSON burst allocates %.1f per run, want <= 2", avg)
	}
	binarySend := func() {
		if err := fw.WriteMessage(Header{Version: Version2, Type: MsgAppRep, Seq: 1}, rep); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := warm(binarySend); avg > 0 {
		t.Errorf("warm binary send allocates %.1f per run, want 0", avg)
	}
}

// BenchmarkINPRoundTrip measures framing cost alone — encode one hot
// message and decode it back, no sockets — for the JSON wire default and
// the Version2 binary fast path. Snapshotted in BENCH_proxy.json.
func BenchmarkINPRoundTrip(b *testing.B) {
	rep := &AppRep{Resource: "mail/inbox", Version: 7, PADID: "pad-differential", Payload: bytes.Repeat([]byte("x"), 512)}
	b.Run("json", func(b *testing.B) {
		var wire bytes.Buffer
		fw := NewFrameWriter(&wire)
		var got AppRep
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire.Reset()
			if err := fw.WriteMessage(Header{Version: Version, Type: MsgAppRep, Seq: 1}, rep); err != nil {
				b.Fatal(err)
			}
			if err := fw.Flush(); err != nil {
				b.Fatal(err)
			}
			_, raw, err := ReadMessage(&wire)
			if err != nil {
				b.Fatal(err)
			}
			got = AppRep{}
			if err := DecodeBody(raw, &got); err != nil {
				b.Fatal(err)
			}
		}
		_ = got
	})
	b.Run("binary", func(b *testing.B) {
		var wire bytes.Buffer
		fw := NewFrameWriter(&wire)
		var got AppRep
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire.Reset()
			if err := fw.WriteMessage(Header{Version: Version2, Type: MsgAppRep, Seq: 1}, rep); err != nil {
				b.Fatal(err)
			}
			if err := fw.Flush(); err != nil {
				b.Fatal(err)
			}
			_, raw, err := ReadMessage(&wire)
			if err != nil {
				b.Fatal(err)
			}
			got = AppRep{}
			if err := decodeV2(MsgAppRep, raw, &got); err != nil {
				b.Fatal(err)
			}
		}
		_ = got
	})
}
