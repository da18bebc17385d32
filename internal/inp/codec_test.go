package inp

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// writeFrame frames one message through a fresh FrameWriter and flushes
// it: the single-frame write of the tests that predate batching, which
// called a package-level WriteMessage the FrameWriter has since replaced.
func writeFrame(w io.Writer, h Header, body interface{}) error {
	fw := NewFrameWriter(w)
	if err := fw.WriteMessage(h, body); err != nil {
		return err
	}
	return fw.Flush()
}

// decodeV2 decodes raw as the Version2 body of a t frame.
func decodeV2(t MsgType, raw []byte, v interface{}) error {
	return DecodeRaw(Header{Version: Version2, Type: t}, raw, v)
}

// fillDistinct sets every exported field reachable from v — through nested
// structs, arrays and slices — to a distinct non-zero value drawn from
// *next, so a round trip that drops, swaps or truncates any one field
// cannot compare equal.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		// Alternate signs and reach past 32 bits: varints must carry both.
		x := int64(n)<<33 + int64(n)
		if n%2 == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint8:
		v.SetUint(uint64(n%255 + 1))
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%v has unexported field %s: the codec cannot be checked for completeness", v.Type(), v.Type().Field(i).Name)
			}
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	default:
		t.Fatalf("fillDistinct: no rule for %v; extend it alongside the codec primitives", v.Type())
	}
}

// TestCodecCompleteness is the receipt for "one codec description per
// message": every message type has a codec, and every body struct
// round-trips with every exported field set, so a field added to a struct
// (or to AppMeta, DevMeta, NtwkMeta, PADMeta, PADOverhead) but forgotten
// in either half of its description fails here. Reflection is confined to
// this test; the codec itself names each field in code.
func TestCodecCompleteness(t *testing.T) {
	for mt := MsgInvalid + 1; mt < msgMax; mt++ {
		proto := msgTable[mt].wire
		if proto == nil {
			t.Errorf("%v has no codec", mt)
			continue
		}
		if got := proto.wireType(); got != mt {
			t.Errorf("msgTable[%v] holds the codec of %v", mt, got)
			continue
		}
		typ := reflect.TypeOf(proto).Elem()
		orig := reflect.New(typ)
		next := 0
		fillDistinct(t, orig.Elem(), &next)

		for _, byValue := range []bool{false, true} {
			body := orig.Interface()
			if byValue {
				body = orig.Elem().Interface()
			}
			var wire bytes.Buffer
			if err := writeFrame(&wire, Header{Version: Version2, Type: mt, Seq: 1}, body); err != nil {
				t.Fatalf("%v (by value %v): %v", mt, byValue, err)
			}
			h, raw, err := ReadMessage(&wire)
			if err != nil {
				t.Fatalf("%v: %v", mt, err)
			}
			got := reflect.New(typ)
			if err := DecodeRaw(h, raw, got.Interface()); err != nil {
				t.Fatalf("%v: %v", mt, err)
			}
			if !reflect.DeepEqual(got.Interface(), orig.Interface()) {
				t.Errorf("%v (by value %v) lost a field in the round trip:\n got %+v\nwant %+v", mt, byValue, got.Elem(), orig.Elem())
			}
		}
		// The codec of one type must refuse the struct of another.
		other := msgTable[mt%(msgMax-1)+1].wire
		if err := writeFrame(io.Discard, Header{Version: Version2, Type: mt, Seq: 1}, other); err == nil {
			t.Errorf("%v frame accepted a %T body", mt, other)
		}
		if err := decodeV2(mt, nil, other); err == nil {
			t.Errorf("%v body decoded into %T", mt, other)
		}
	}
}

// TestEveryMsgTypeNamed: each type in (MsgInvalid, msgMax) has a paper
// name, so a new constant cannot ship as "MSG(n)".
func TestEveryMsgTypeNamed(t *testing.T) {
	seen := map[string]MsgType{}
	for mt := MsgInvalid + 1; mt < msgMax; mt++ {
		name := msgTable[mt].name
		if name == "" {
			t.Errorf("message type %d has no name", mt)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("types %d and %d share the name %q", prev, mt, name)
		}
		seen[name] = mt
	}
	if got := MsgInvalid.String(); got != "MSG(0)" {
		t.Errorf("MsgInvalid renders as %q", got)
	}
	if got := msgMax.String(); got != fmt.Sprintf("MSG(%d)", uint8(msgMax)) {
		t.Errorf("msgMax renders as %q", got)
	}
}

// TestBinaryDecodeHostileFields pins the reader's safety checks one field
// kind at a time: a wire-declared length or count larger than the bytes
// present fails before anything is sized from it, a bool byte other than
// 0/1 and trailing bytes are rejected, and a fixed-width field cut short
// is a truncation.
func TestBinaryDecodeHostileFields(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x07} // uvarint 2^31-1
	for _, tc := range []struct {
		name string
		mt   MsgType
		raw  []byte
		into interface{}
		want string
	}{
		{"string length", MsgInitRep, append([]byte{0}, huge...), &InitRep{}, "truncated"},
		{"blob count", MsgPADDownloadRep, append([]byte{0}, huge...), &PADDownloadRep{}, "truncated"},
		{"string-slice count", MsgAppReq, append([]byte{0, 0}, huge...), &AppReq{}, "truncated"},
		{"PAD count", MsgPADMetaRep, huge, &PADMetaRep{}, "truncated"},
		{"PAD count just past the body", MsgPADMetaRep, []byte{3, 0}, &PADMetaRep{}, "truncated"},
		{"bad bool", MsgInitRep, []byte{2, 0}, &InitRep{}, "bad bool byte 2"},
		{"trailing byte", MsgInitRep, []byte{1, 0, 0}, &InitRep{}, "1 trailing bytes"},
		{"short float", MsgCliMetaReq, []byte{0, 0, 1, 2, 3}, &CliMetaReq{}, "truncated"},
		{"short digest", MsgPADMetaRep, []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 9, 9}, &PADMetaRep{}, "truncated"},
		{"unterminated varint", MsgInitReq, []byte{0, 0, 0, 0x80}, &InitReq{}, "truncated"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeV2(tc.mt, tc.raw, tc.into)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		// A slice sized from the hostile 2^31 count would be gigabytes.
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
			t.Errorf("%s: allocated %d bytes while rejecting", tc.name, delta)
		}
	}
}

// TestFrameWriterRollsBackHalfQueuedFrame: a frame that fails after part
// of it was staged — here a body over MaxBody, discovered only once its
// fields and a splice vector are queued — leaves the batch exactly as it
// was, so the frames queued before and after it flush intact.
func TestFrameWriterRollsBackHalfQueuedFrame(t *testing.T) {
	var want, got bytes.Buffer
	good := []interface{}{&InitRep{OK: true}, &AppRep{Resource: "r", Payload: goldenBlob(spliceMin)}}
	for i, body := range good {
		if err := writeFrame(&want, Header{Version: Version2, Type: body.(wireBody).wireType(), Seq: uint32(i + 1)}, body); err != nil {
			t.Fatal(err)
		}
	}
	fw := NewFrameWriter(&got)
	if err := fw.WriteMessage(Header{Version: Version2, Type: MsgInitRep, Seq: 1}, good[0]); err != nil {
		t.Fatal(err)
	}
	before := fw.Buffered()
	tooBig := &AppRep{Resource: "r", Payload: make([]byte, MaxBody)}
	if err := fw.WriteMessage(Header{Version: Version2, Type: MsgAppRep, Seq: 2}, tooBig); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized body: %v", err)
	}
	if err := fw.WriteMessage(Header{Version: Version2, Type: MsgAppRep, Seq: 2}, make(chan int)); err == nil {
		t.Fatal("a body with no codec was queued")
	}
	if fw.Buffered() != before {
		t.Fatalf("failed frames left %d bytes queued", fw.Buffered()-before)
	}
	if err := fw.WriteMessage(Header{Version: Version2, Type: MsgAppRep, Seq: 2}, good[1]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("batch after rollback diverges: %d bytes, want %d", got.Len(), want.Len())
	}
}
