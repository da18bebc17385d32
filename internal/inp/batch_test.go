package inp

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"

	"fractal/internal/arena"
	"fractal/internal/core"
)

// FuzzFrameBatch pins the batching equivalence: a batch of frames queued
// through FrameWriter and emitted by one Flush is byte-identical to the
// same frames written sequentially with WriteMessage.
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
			if err := writeFrame(&sequential, Header{Version: Version2, Type: fr.t, Seq: seq}, fr.body); err != nil {
				t.Fatalf("sequential WriteMessage(%v): %v", fr.t, err)
			}
		}
		var batched bytes.Buffer
		fw := NewFrameWriter(&batched)
		seq = 0
		for _, fr := range frames {
			seq++
			if err := fw.WriteMessage(Header{Version: Version2, Type: fr.t, Seq: seq}, fr.body); err != nil {
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

// TestBinaryFloatSpecials pins the codec on non-finite floats: NaN and
// the infinities round-trip bit-exact.
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

// FuzzBinaryDecodeGarbage pins that hostile bodies never panic the
// decoder of any message type. Besides four hostile bodies, two of them
// APP_REP, it is seeded with a valid body of every type (the golden
// cases), so mutation starts from each codec's real layout.
func FuzzBinaryDecodeGarbage(f *testing.F) {
	f.Add([]byte{0x01, 0x61, 0x00, 0x00, 0x00}, byte(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, byte(1))
	// APP_REP bodies: a Base far past Version, and a Base varint that
	// overflows before PADID and Payload.
	var rep bytes.Buffer
	if err := writeFrame(&rep, Header{Version: Version2, Type: MsgAppRep, Seq: 1}, &AppRep{Resource: "r", Version: 1, Base: 1 << 40, PADID: "p"}); err != nil {
		f.Fatal(err)
	}
	f.Add(rep.Bytes()[headerLen:], byte(MsgAppRep-1))
	f.Add([]byte{0x01, 'r', 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x01, 'p', 0x00}, byte(MsgAppRep-1))
	for _, gc := range goldenCases() {
		var wire bytes.Buffer
		if err := writeFrame(&wire, Header{Version: Version2, Type: gc.t, Seq: 1}, gc.body); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes()[headerLen:], byte(gc.t-1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, which byte) {
		mt := MsgInvalid + 1 + MsgType(which)%(msgMax-1)
		_ = decodeV2(mt, raw, reflect.New(reflect.TypeOf(msgTable[mt].wire).Elem()).Interface())
	})
}

// TestFrameWriterSpliceInterleaving pins the vectored path: a batch
// mixing small frames with a frame whose module is large enough to splice
// must coalesce to exactly the concatenation of the frames flushed
// one at a time.
func TestFrameWriterSpliceInterleaving(t *testing.T) {
	module := bytes.Repeat([]byte{0xab}, spliceMin+100)
	frames := []struct {
		h    Header
		body interface{}
	}{
		{Header{Version: Version2, Type: MsgInitRep, Seq: 1}, InitRep{OK: true}},
		{Header{Version: Version2, Type: MsgPADDownloadRep, Seq: 2}, &PADDownloadRep{PADID: "p", Module: module}},
		{Header{Version: Version2, Type: MsgError, Seq: 3}, ErrorRep{Message: "tail"}},
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

// TestSessionConnRejectsHostileHeader keeps the hostile-length discipline
// on the session read path: a header claiming 64 MB with a truncated body
// must fail without reserving the claimed size.
func TestSessionConnRejectsHostileHeader(t *testing.T) {
	var wire bytes.Buffer
	hdr := make([]byte, headerLen)
	copy(hdr, magic[:])
	hdr[4] = Version2
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
// path: a warm queue+flush of a burst allocates nothing at all. The seqs
// are above 255 so that boxing or formatting one allocates: Go boxes a
// smaller integer into a static table, and formats it into a static
// string, for free.
func TestBatchedFramingSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	burst := []interface{}{
		&InitReq{AppID: "app", Resource: "res"},
		&InitRep{OK: true},
		&AppRep{Resource: "res", Version: 3, PADID: "pad", Payload: bytes.Repeat([]byte("x"), 256)},
	}
	fw := NewFrameWriter(io.Discard)
	send := func() {
		for i, body := range burst {
			if err := fw.WriteMessage(Header{Version: Version2, Type: body.(wireBody).wireType(), Seq: uint32(1000 + i)}, body); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg > 0 {
		t.Errorf("warm burst allocates %.1f per run, want 0", avg)
	}
}

// BenchmarkINPRoundTrip measures framing cost alone — encode one hot
// message and decode it back, no sockets. Snapshotted in BENCH_proxy.json.
func BenchmarkINPRoundTrip(b *testing.B) {
	rep := &AppRep{Resource: "mail/inbox", Version: 7, PADID: "pad-differential", Payload: bytes.Repeat([]byte("x"), 512)}
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
