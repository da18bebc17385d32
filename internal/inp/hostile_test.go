package inp

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// TestReadMessageHostileLengthNoHugeAllocation pins the allocation
// behaviour for a hostile frame header: a peer claiming the full 64 MB
// MaxBody and then hanging up must not cost the reader a 64 MB buffer —
// the body grows in maxBodyReserve steps as bytes actually arrive, so a
// truncated stream fails after at most one ~1 MB step. The bound below
// leaves megabytes of headroom so runtime noise cannot flake it; the
// regression it catches is the original make([]byte, n) sized straight
// from the wire.
func TestReadMessageHostileLengthNoHugeAllocation(t *testing.T) {
	var hdr [headerLen]byte
	copy(hdr[0:4], magic[:])
	hdr[4] = Version2
	hdr[5] = uint8(MsgAppRep)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(MaxBody))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := ReadMessage(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)

	if err == nil {
		t.Fatal("truncated 64 MB-claiming frame read without error")
	}
	if !strings.Contains(err.Error(), "reading APP_REP body") {
		t.Fatalf("unexpected read error: %v", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 8<<20 {
		t.Fatalf("reading a truncated 64 MB-claiming frame allocated %d bytes", delta)
	}
}
