package codec

import (
	"bytes"
	"testing"
)

// TestBitmapDecodeTruncated verifies every prefix of a valid payload is
// rejected rather than misparsed — the failure mode a silent short read
// would hide.
func TestBitmapDecodeTruncated(t *testing.T) {
	b, err := NewBitmap(64)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{7}, 256)
	cur := bytes.Repeat([]byte{9}, 256)
	payload, err := b.Encode(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := b.Decode(old, payload[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(payload))
		}
	}
}
