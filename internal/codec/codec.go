// Package codec implements the four communication-optimization protocols
// of the paper's case study (Section 4.1) behind a single interface:
//
//   - Direct sending: no optimization, content sent as-is.
//   - Gzip: LZ77 compression at the server, decompression at the client.
//   - Bitmap: fixed-size blocking. Both versions are divided into
//     fixed-size blocks; the client sends digests of its blocks and the
//     server responds only with blocks that changed ([29]).
//   - Vary-sized blocking: LBFS-style content-defined chunking with Rabin
//     fingerprints; the server sends only chunks whose content does not
//     already exist anywhere in the client's old version ([34]).
//
// Each protocol also carries a CostModel: its computing overhead per byte
// on the paper's reference 500 MHz processor, the quantity Equation 3
// scales by device speed and the normalized ratio matrices.
package codec

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Codec is one communication-optimization protocol. Encode runs on the
// server given the version the client holds (old, nil if none) and the
// current version; Decode runs on the client to reconstruct the current
// version. Implementations must be safe for concurrent use.
type Codec interface {
	// Name returns the protocol's registry name.
	Name() string
	// Encode produces the downstream wire payload for cur given that the
	// receiver holds old (nil when the receiver has nothing).
	Encode(old, cur []byte) ([]byte, error)
	// Decode reconstructs cur from the payload and the receiver's old
	// version (nil when none was held).
	Decode(old, payload []byte) ([]byte, error)
}

// BaseIndependent marks a protocol whose Encode ignores old: the payload
// for cur is the same whatever version the receiver holds, so a server may
// encode a version once and serve it against every base. Direct and Gzip
// are; a protocol that does not say so is encoded per base.
type BaseIndependent interface {
	BaseIndependent()
}

// UpstreamCoster is implemented by protocols that send request-direction
// data beyond the request itself (Bitmap's client block digests). The
// returned size is counted as additional traffic by the experiment
// harness.
type UpstreamCoster interface {
	UpstreamBytes(old []byte) int64
}

// CostModel is a protocol's computing overhead on the reference 500 MHz
// processor, expressed per processed byte plus a fixed setup term. The
// paper pre-tests each PAD to obtain exactly these server/client vectors
// (Equation 1); here they are calibrated constants documented in DESIGN.md.
type CostModel struct {
	ServerNsPerByte float64
	ClientNsPerByte float64
	ServerFixed     time.Duration
	ClientFixed     time.Duration
}

// ServerTime returns the reference-CPU server-side computing overhead for
// n processed bytes.
func (m CostModel) ServerTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	return m.ServerFixed + time.Duration(m.ServerNsPerByte*float64(n))
}

// ClientTime returns the reference-CPU client-side computing overhead for
// n processed bytes.
func (m CostModel) ClientTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	return m.ClientFixed + time.Duration(m.ClientNsPerByte*float64(n))
}

// Costed couples a Codec with its reference cost model; the case-study
// constructors below all return Costed implementations.
type Costed interface {
	Codec
	Cost() CostModel
}

// Registry names of the case-study protocols.
const (
	NameDirect    = "direct"
	NameGzip      = "gzip"
	NameBitmap    = "bitmap"
	NameVaryBlock = "varyblock"
)

var (
	regMu    sync.RWMutex
	registry = map[string]func() (Costed, error){}
)

// Register installs a protocol constructor under a name. It returns an
// error if the name is already taken.
func Register(name string, ctor func() (Costed, error)) error {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("codec: protocol %q already registered", name)
	}
	registry[name] = ctor
	return nil
}

// New constructs a registered protocol by name.
func New(name string) (Costed, error) {
	regMu.RLock()
	ctor, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: unknown protocol %q", name)
	}
	return ctor()
}

// Names returns the sorted registry names.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(Register(NameDirect, func() (Costed, error) { return NewDirect(), nil }))
	must(Register(NameGzip, func() (Costed, error) { return NewGzip(), nil }))
	must(Register(NameBitmap, func() (Costed, error) { return NewBitmap(DefaultBlockSize) }))
	must(Register(NameVaryBlock, func() (Costed, error) { return NewVaryBlock() }))
	must(Register(NameRsync, func() (Costed, error) { return NewRsync(DefaultBlockSize) }))
}
