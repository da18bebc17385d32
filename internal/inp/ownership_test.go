package inp

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"fractal/internal/arena"
	"fractal/internal/netsim"
)

// patterned returns n bytes no two frames of a test share.
func patterned(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*31 + salt
	}
	return p
}

// TestRecvIntoBlobOwnership pins the one rule wire.Reader.Blob states: a
// decoded []byte field aliases the frame body iff the Conn is dialled or
// the body was read into the caller's buffer. A dialled Conn therefore
// delivers a payload for one allocation of its size, CallInto lends the
// reply the caller's buffer, a session Conn and the exported decoders copy
// out of storage that is about to be reused, and either way a message
// already delivered survives whatever is received next.
func TestRecvIntoBlobOwnership(t *testing.T) {
	const size = 256 << 10
	first, second := patterned(size, 1), patterned(2*size, 2)
	module := patterned(size/2, 3)

	t.Run("dialled conn aliases the frame it allocated", func(t *testing.T) {
		a, b := netsim.StreamPair()
		tx, rx := NewConn(a), NewConn(b)
		for _, m := range []AppRep{{Resource: "r", Version: 1, PADID: "pad-direct", Payload: first},
			{Resource: "r", Version: 2, PADID: "pad-direct", Payload: second}} {
			if err := tx.Send(MsgAppRep, m); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Send(MsgPADDownloadRep, PADDownloadRep{PADID: "pad-vary", Module: module}); err != nil {
			t.Fatal(err)
		}

		var rep1, rep2 AppRep
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := rx.RecvInto(MsgAppRep, &rep1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// The frame body is the one payload-sized allocation; a copied-out
		// payload would make it two. (The race detector's build allocates
		// slices.Grow's temporary, so the byte count means nothing there.)
		if delta := after.TotalAlloc - before.TotalAlloc; !raceEnabled && delta > size+size/2 {
			t.Fatalf("receiving a %d-byte payload allocated %d bytes: the payload was copied out of its frame", size, delta)
		}
		if cap(rep1.Payload) != len(rep1.Payload) {
			t.Fatalf("payload cap %d != len %d: an append would reach the frame bytes behind it", cap(rep1.Payload), len(rep1.Payload))
		}
		if err := rx.RecvInto(MsgAppRep, &rep2); err != nil {
			t.Fatal(err)
		}
		var dl PADDownloadRep
		if err := rx.RecvInto(MsgPADDownloadRep, &dl); err != nil {
			t.Fatal(err)
		}
		if cap(dl.Module) != len(dl.Module) {
			t.Fatalf("module cap %d != len %d", cap(dl.Module), len(dl.Module))
		}
		if !bytes.Equal(rep1.Payload, first) || !bytes.Equal(rep2.Payload, second) || !bytes.Equal(dl.Module, module) {
			t.Fatal("a later, larger frame disturbed a message already delivered")
		}
	})

	t.Run("session conn copies out of its reused body buffer", func(t *testing.T) {
		a, b := netsim.StreamPair()
		tx := NewConn(a)
		sess := arena.AcquireSession()
		defer sess.Release()
		rx := NewConnSession(b, sess)
		small, tail := patterned(8<<10, 4), patterned(300, 8)
		big := patterned(3<<19, 7) // past one maxBodyReserve step and every class
		for _, p := range [][]byte{small, patterned(8<<10, 5), second, big, tail} {
			if err := tx.Send(MsgAppRep, AppRep{Resource: "r", PADID: "pad-direct", Payload: p}); err != nil {
				t.Fatal(err)
			}
		}
		h, raw, err := rx.Recv()
		if err != nil {
			t.Fatal(err)
		}
		var viaDecodeAs AppRep
		if err := DecodeAs(h, raw, MsgAppRep, &viaDecodeAs); err != nil {
			t.Fatal(err)
		}
		held := bytes.Clone(raw)
		var viaRecvInto, mid, large, last AppRep
		if err := rx.RecvInto(MsgAppRep, &viaRecvInto); err != nil {
			t.Fatal(err)
		}
		// The test has teeth only if the body buffer really was reused.
		if bytes.Equal(raw, held) {
			t.Fatal("the session body buffer was not overwritten by the next Recv")
		}
		for _, rep := range []*AppRep{&mid, &large, &last} {
			if err := rx.RecvInto(MsgAppRep, rep); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(viaDecodeAs.Payload, small) || !bytes.Equal(viaRecvInto.Payload, patterned(8<<10, 5)) ||
			!bytes.Equal(mid.Payload, second) || !bytes.Equal(large.Payload, big) || !bytes.Equal(last.Payload, tail) {
			t.Fatal("a message decoded on a session conn did not survive the body buffer's reuse")
		}
		if _, body := sess.Buffers(); body.Len() >= len(big) || body.Holds(last.Payload) {
			t.Fatalf("the small frame after a large one was not read into the body buffer alone (len %d) or its payload aliases it", body.Len())
		}
	})

	t.Run("CallInto on a session conn leaves the session's body buffer alone", func(t *testing.T) {
		a, b := netsim.StreamPair()
		tx := NewConn(a)
		sess := arena.AcquireSession()
		defer sess.Release()
		rx := NewConnSession(b, sess)
		for _, p := range [][]byte{first, second} {
			if err := tx.Send(MsgAppRep, AppRep{Resource: "r", PADID: "pad-direct", Payload: p}); err != nil {
				t.Fatal(err)
			}
		}
		_, raw, err := rx.Recv()
		if err != nil {
			t.Fatal(err)
		}
		held := bytes.Clone(raw)
		var buf arena.Buffer
		defer buf.Release()
		var rep AppRep
		if err := rx.CallInto(MsgAppReq, &AppReq{AppID: "a", Resource: "r"}, MsgAppRep, &rep, &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep.Payload, second) || !buf.Holds(rep.Payload) || cap(rep.Payload) != len(rep.Payload) {
			t.Fatal("the reply does not alias the caller's buffer at its exact size")
		}
		if _, body := sess.Buffers(); !bytes.Equal(raw, held) || !bytes.Equal(body.Bytes(), held) {
			t.Fatal("CallInto wrote the session's body buffer")
		}
	})

	t.Run("CallInto lends the reply the caller's arena buffer", func(t *testing.T) {
		a, b := netsim.StreamPair()
		tx, rx := NewConn(a), NewConn(b)
		big := patterned(3<<19, 6) // past one maxBodyReserve step and every class
		var buf arena.Buffer
		defer buf.Release()
		for i, want := range [][]byte{second, first, big} {
			if err := tx.Send(MsgAppRep, AppRep{Resource: "r", PADID: "pad-direct", Payload: want}); err != nil {
				t.Fatal(err)
			}
			var rep AppRep
			if err := rx.CallInto(MsgAppReq, &AppReq{AppID: "a", Resource: "r"}, MsgAppRep, &rep, &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rep.Payload, want) || cap(rep.Payload) != len(rep.Payload) {
				t.Fatalf("reply %d: the payload lent from the buffer differs or reaches past itself", i)
			}
			if !buf.Holds(rep.Payload) || buf.Len() < len(want) {
				t.Fatalf("reply %d: the payload was not read into the caller's buffer", i)
			}
		}
	})

	t.Run("exported decoders leave the caller its buffer", func(t *testing.T) {
		var wire bytes.Buffer
		if err := NewConn(&wire).Send(MsgPADDownloadRep, PADDownloadRep{PADID: "pad-vary", Module: module}); err != nil {
			t.Fatal(err)
		}
		h, raw, err := ReadMessage(&wire)
		if err != nil {
			t.Fatal(err)
		}
		var viaRaw, viaAs PADDownloadRep
		if err := DecodeRaw(h, raw, &viaRaw); err != nil {
			t.Fatal(err)
		}
		if err := DecodeAs(h, raw, MsgPADDownloadRep, &viaAs); err != nil {
			t.Fatal(err)
		}
		clear(raw) // the caller reuses its buffer
		if !bytes.Equal(viaRaw.Module, module) || !bytes.Equal(viaAs.Module, module) {
			t.Fatal("DecodeRaw/DecodeAs kept a reference into the caller's buffer")
		}
	})

	t.Run("hostile blob length fails before anything is sized from it", func(t *testing.T) {
		// PADID "", then a blob claiming 2^31-2 bytes with three present.
		body := []byte{0, 0xff, 0xff, 0xff, 0xff, 0x07, 1, 2, 3}
		h := Header{Version: Version2, Type: MsgPADDownloadRep, Seq: 1}
		var hdr [headerLen]byte
		copy(hdr[0:4], magic[:])
		hdr[4], hdr[5] = h.Version, uint8(h.Type)
		binary.BigEndian.PutUint32(hdr[8:12], h.Seq)
		binary.BigEndian.PutUint32(hdr[12:16], uint32(len(body)))
		frame := append(hdr[:], body...)
		for _, owned := range []bool{true, false} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if owned {
				err = NewConn(bytes.NewBuffer(frame)).RecvInto(MsgPADDownloadRep, &PADDownloadRep{})
			} else {
				err = DecodeRaw(h, body, &PADDownloadRep{})
			}
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "truncated field") {
				t.Fatalf("owned=%v: error %v, want a truncated field", owned, err)
			}
			if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
				t.Fatalf("owned=%v: allocated %d bytes while rejecting a 2 GB blob length", owned, delta)
			}
		}
	})
}

// TestBufferedReadsDecodeIdentically: however the stream is cut into
// reads — one byte at a time, split in two at every offset, or a whole
// burst in one read — a dialled Conn decodes the same messages, and sees a
// burst's second frame as pending input.
func TestBufferedReadsDecodeIdentically(t *testing.T) {
	want := []interface{}{
		&InitRep{OK: true, Reason: "first frame"},
		&AppRep{Resource: "r", Version: 7, PADID: "pad-gzip", Payload: patterned(readBufSize+900, 6)}, // body larger than the read buffer
		&AppRep{Resource: "s", Version: 8, PADID: "pad-direct", Payload: []byte("small")},
		&PADDownloadRep{PADID: "pad-vary", Module: patterned(300, 7)},
	}
	types := []MsgType{MsgInitRep, MsgAppRep, MsgAppRep, MsgPADDownloadRep}
	var wire bytes.Buffer
	tx := NewConn(&wire)
	for i, m := range want {
		if err := tx.Queue(types[i], m); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := wire.Bytes()

	recvAll := func(name string, r io.Reader, burst bool) {
		t.Helper()
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{r, io.Discard})
		for i := range want {
			got := reflect.New(reflect.TypeOf(want[i]).Elem()).Interface()
			if err := c.RecvInto(types[i], got); err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: frame %d decoded as %+v", name, i, got)
			}
			if i == 0 && burst && !c.InputPending() {
				t.Fatalf("%s: the burst's next frame is not pending after the first", name)
			}
		}
		if c.InputPending() {
			t.Fatalf("%s: input pending after the stream drained", name)
		}
	}
	recvAll("one read", bytes.NewReader(stream), true)
	recvAll("one byte per read", iotest.OneByteReader(bytes.NewReader(stream)), false)
	for k := 0; k <= len(stream); k++ {
		recvAll("split", io.MultiReader(bytes.NewReader(stream[:k]), bytes.NewReader(stream[k:])), false)
	}
	// A stream that ends mid-frame is an error, never a short message.
	for _, k := range []int{headerLen - 1, headerLen + 3, len(stream) - 1} {
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(stream[:k]), io.Discard})
		var err error
		for i := 0; i < len(want) && err == nil; i++ {
			err = c.RecvInto(types[i], reflect.New(reflect.TypeOf(want[i]).Elem()).Interface())
		}
		if err == nil {
			t.Fatalf("stream cut at byte %d decoded every frame", k)
		}
	}
}
