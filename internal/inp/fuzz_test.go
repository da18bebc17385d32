package inp

import (
	"bytes"
	"sync"
	"testing"
)

// FuzzReadMessage hardens the frame parser against adversarial bytes: it
// must never panic and never allocate unbounded buffers.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrame(&seed, Header{Version: Version2, Type: MsgInitReq, Seq: 1}, InitReq{AppID: "a"})
	f.Add(seed.Bytes())
	f.Add([]byte("INP1garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.Type == MsgInvalid || h.Type >= msgMax {
			t.Fatalf("parser accepted invalid type %v", h.Type)
		}
		if len(body) > MaxBody {
			t.Fatalf("parser returned %d-byte body beyond limit", len(body))
		}
	})
}

// FuzzWriteMessagePooledEquivalence pins storage reuse in the framer: a
// frame queued on a writer whose arena storage already carried an earlier
// batch — a spliced one, whose vector must not leak into the next flush —
// is byte-identical to the same frame from a fresh writer, and round-trips
// through ReadMessage to exactly the message queued, invalid UTF-8
// included.
func FuzzWriteMessagePooledEquivalence(f *testing.F) {
	f.Add("webapp", "page-000", "alice", uint32(1))
	f.Add("<script>&", "a\xff\xfeb", "", uint32(0))
	f.Add("", "", "", uint32(1<<31))
	f.Fuzz(func(t *testing.T, appID, resource, clientID string, seq uint32) {
		body := InitReq{AppID: appID, Resource: resource, ClientID: clientID}
		h := Header{Version: Version2, Type: MsgInitReq, Seq: seq}
		var want bytes.Buffer
		if err := writeFrame(&want, h, body); err != nil {
			t.Fatalf("fresh write: %v", err)
		}
		var got bytes.Buffer
		fw := NewFrameWriter(&got)
		earlier := &AppRep{Resource: resource, PADID: appID, Payload: goldenBlob(spliceMin)}
		if err := fw.WriteMessage(Header{Version: Version2, Type: MsgAppRep, Seq: seq}, earlier); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		got.Reset()
		if err := fw.WriteMessage(h, body); err != nil {
			t.Fatalf("reused write: %v", err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("reused writer's frame diverged from a fresh one:\nreused: %q\nfresh:  %q", got.Bytes(), want.Bytes())
		}
		rh, raw, err := ReadMessage(&got)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if rh != h {
			t.Fatalf("round-trip header %+v, want %+v", rh, h)
		}
		var back InitReq
		if err := DecodeRaw(rh, raw, &back); err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if back != body {
			t.Fatalf("round trip decoded %+v, want %+v", back, body)
		}
	})
}

// TestWriteMessagePooledConcurrent hammers the arena storage the framers
// share from many goroutines (run under -race in CI) and checks every
// frame parses back to its own sequence number — a buffer-sharing bug
// would interleave them.
func TestWriteMessagePooledConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seq := uint32(g*1000 + i)
				var buf bytes.Buffer
				if err := writeFrame(&buf, Header{Version: Version2, Type: MsgAppReq, Seq: seq},
					AppReq{AppID: "webapp", Resource: "page", ProtocolIDs: []string{"gzip"}}); err != nil {
					t.Error(err)
					return
				}
				h, _, err := ReadMessage(&buf)
				if err != nil || h.Seq != seq {
					t.Errorf("round trip: h=%+v err=%v, want seq %d", h, err, seq)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
