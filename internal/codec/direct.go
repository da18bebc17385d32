package codec

// Direct is the null protocol: content travels unmodified. Strictly
// speaking there is no optimization, but the client still negotiates with
// the adaptation proxy first (Section 4.1), so Direct is a real PAD with
// zero computing overhead.
type Direct struct{}

// NewDirect returns the Direct sending protocol.
func NewDirect() *Direct { return &Direct{} }

// Name implements Codec.
func (*Direct) Name() string { return NameDirect }

// Cost implements Costed: Direct performs no computation on either side.
func (*Direct) Cost() CostModel { return CostModel{} }

// BaseIndependent implements the marker: Encode never reads old.
func (*Direct) BaseIndependent() {}

// Encode implements Codec: the payload is the current content itself.
func (*Direct) Encode(old, cur []byte) ([]byte, error) {
	return cur, nil
}

// Decode implements Codec.
func (*Direct) Decode(old, payload []byte) ([]byte, error) {
	return append([]byte(nil), payload...), nil
}
