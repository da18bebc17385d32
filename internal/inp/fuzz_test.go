package inp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// FuzzReadMessage hardens the frame parser against adversarial bytes: it
// must never panic and never allocate unbounded buffers.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrame(&seed, Header{Version: Version, Type: MsgInitReq, Seq: 1}, InitReq{AppID: "a"})
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

// referenceFrame is the pre-pooling WriteMessage algorithm (json.Marshal
// plus a separately assembled header), kept as the byte-level pin for the
// pooled encoder.
func referenceFrame(t *testing.T, h Header, body interface{}) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	var hdr [headerLen]byte
	copy(hdr[0:4], magic[:])
	hdr[4] = h.Version
	hdr[5] = uint8(h.Type)
	binary.BigEndian.PutUint32(hdr[8:12], h.Seq)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(raw)))
	return append(hdr[:], raw...)
}

// FuzzWriteMessagePooledEquivalence pins the pooled framing: for arbitrary
// string payloads (covering HTML-escaped characters and invalid UTF-8),
// a frame produced through a pooled Conn is byte-identical to the unpooled
// encoding and round-trips through ReadMessage to the same message.
func FuzzWriteMessagePooledEquivalence(f *testing.F) {
	f.Add("webapp", "page-000", "alice", uint32(1))
	f.Add("<script>&", "a\xff\xfeb", "", uint32(0))
	f.Add("", "", "", uint32(1<<31))
	f.Fuzz(func(t *testing.T, appID, resource, clientID string, seq uint32) {
		body := InitReq{AppID: appID, Resource: resource, ClientID: clientID}
		h := Header{Version: Version, Type: MsgInitReq, Seq: seq}
		var got bytes.Buffer
		if err := writeFrame(&got, h, body); err != nil {
			t.Fatalf("pooled write: %v", err)
		}
		want := referenceFrame(t, h, body)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("pooled frame diverged from reference:\npooled:    %q\nreference: %q", got.Bytes(), want)
		}
		rh, raw, err := ReadMessage(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if rh != h {
			t.Fatalf("round-trip header %+v, want %+v", rh, h)
		}
		var back InitReq
		if err := DecodeBody(raw, &back); err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		// json.Marshal coerces invalid UTF-8 to U+FFFD, so compare against
		// what the reference encoding decodes to, not the original input.
		var wantBack InitReq
		if err := DecodeBody(want[headerLen:], &wantBack); err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		if !reflect.DeepEqual(back, wantBack) {
			t.Fatalf("round trip decoded %+v, want %+v", back, wantBack)
		}
	})
}

// TestWriteMessagePooledConcurrent hammers the frame pool from many
// goroutines (run under -race in CI) and checks every frame parses back
// to its own sequence number — a buffer-sharing bug would interleave them.
func TestWriteMessagePooledConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seq := uint32(g*1000 + i)
				var buf bytes.Buffer
				if err := writeFrame(&buf, Header{Version: Version, Type: MsgAppReq, Seq: seq},
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
