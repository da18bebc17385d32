package mobilecode

import (
	"crypto/ed25519"
	"crypto/sha1"
	"errors"
	"fmt"
	"sort"

	"fractal/internal/wire"
)

// moduleMagic identifies a packed PAD module on the wire and in CDN
// storage.
const moduleMagic = "FMC2"

// Payload is the executable content of a PAD module: the encode and
// decode programs plus configuration parameters consumed by the host
// functions (block sizes, chunker settings, compression level, ...).
type Payload struct {
	Protocol string
	Encode   []byte // Program.MarshalBinary output
	Decode   []byte
	Params   map[string]string
}

// Module is a packaged, signed PAD: the mobile-code unit distributed
// through the CDN. It carries its payload fields directly. A module
// returned by Unpack aliases the packed bytes it was parsed from (Encode
// and Decode are windows of them, capacity clipped); nothing in this
// package ever writes those bytes.
type Module struct {
	ID      string
	Version string
	Entity  string // signing entity
	Payload
	Digest [sha1.Size]byte // SHA-1 of the packed section
	Sig    []byte
}

// NewModule packages a payload into a signed module. The module keeps p's
// slices and map.
func NewModule(id, version string, p Payload, signer *Signer) (*Module, error) {
	if id == "" || version == "" {
		return nil, fmt.Errorf("mobilecode: module needs id and version, got %q/%q", id, version)
	}
	if signer == nil {
		return nil, errors.New("mobilecode: module needs a signer")
	}
	if p.Protocol == "" {
		return nil, errors.New("mobilecode: payload needs a protocol name")
	}
	if _, err := UnmarshalProgram(p.Encode); err != nil {
		return nil, fmt.Errorf("mobilecode: payload encode program: %w", err)
	}
	if _, err := UnmarshalProgram(p.Decode); err != nil {
		return nil, fmt.Errorf("mobilecode: payload decode program: %w", err)
	}
	m := &Module{ID: id, Version: version, Entity: signer.Entity, Payload: p}
	m.Digest = sha1.Sum(p.appendSection(nil))
	m.Sig = signer.Sign(id, version, m.Digest)
	return m, nil
}

// Size returns the packed wire size of the module, the PAD size used by
// the overhead model.
func (m *Module) Size() int64 {
	b, err := m.Pack()
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// wellFormed holds what Pack writes and Unpack accepts beyond the layout.
func (m *Module) wellFormed() error {
	if m.ID == "" || m.Version == "" || m.Entity == "" || m.Protocol == "" {
		return fmt.Errorf("mobilecode: module needs id, version, entity and protocol, got %q/%q/%q/%q", m.ID, m.Version, m.Entity, m.Protocol)
	}
	if len(m.Sig) != ed25519.SignatureSize {
		return fmt.Errorf("mobilecode: module %s has %d-byte signature, want %d", m.ID, len(m.Sig), ed25519.SignatureSize)
	}
	return nil
}

// Pack serializes the module for CDN storage and transport in package
// wire's encoding:
//
//	"FMC2" | str id | str version | str entity | bytes section |
//	digest (20 B) | signature (64 B)
//	section = str protocol | bytes encode | bytes decode |
//	          count params | (str key | str value)... in strictly ascending key order
//
// The digest is the SHA-1 of exactly the section bytes; the signature
// covers the id, version and digest.
func (m *Module) Pack() ([]byte, error) {
	if err := m.wellFormed(); err != nil {
		return nil, err
	}
	sec := m.appendSection(nil)
	b := make([]byte, 0, len(moduleMagic)+len(m.ID)+len(m.Version)+len(m.Entity)+len(sec)+128)
	b = wire.AppendString(append(b, moduleMagic...), m.ID)
	b = wire.AppendString(b, m.Version)
	b = wire.AppendString(b, m.Entity)
	b = wire.AppendBytes(b, sec)
	b = append(b, m.Digest[:]...)
	return append(b, m.Sig...), nil
}

// appendSection appends the signed section of the layout Pack documents.
func (p *Payload) appendSection(b []byte) []byte {
	b = wire.AppendString(b, p.Protocol)
	b = wire.AppendBytes(b, p.Encode)
	b = wire.AppendBytes(b, p.Decode)
	keys := make([]string, 0, len(p.Params))
	for k := range p.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = wire.AppendCount(b, len(keys), p.Params == nil)
	for _, k := range keys {
		b = wire.AppendString(wire.AppendString(b, k), p.Params[k])
	}
	return b
}

// Unpack parses a packed module in one pass. It checks structure and the
// section digest but NOT the signature — signature verification needs a
// trust list and belongs to the Loader. packed is never written; the
// module aliases it (see Module).
func Unpack(packed []byte) (*Module, error) {
	if len(packed) < len(moduleMagic) || string(packed[:len(moduleMagic)]) != moduleMagic {
		return nil, fmt.Errorf("mobilecode: not an %s PAD module (magic %q)", moduleMagic, packed[:min(len(packed), len(moduleMagic))])
	}
	r := wire.NewReader(packed[len(moduleMagic):], true)
	m := &Module{ID: r.Str(), Version: r.Str(), Entity: r.Str()}
	sec := r.Bytes()
	copy(m.Digest[:], r.Take(sha1.Size))
	m.Sig = r.Take(ed25519.SignatureSize)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("mobilecode: malformed module: %w", err)
	}
	if !DigestEqual(sha1.Sum(sec), m.Digest) {
		return nil, fmt.Errorf("mobilecode: module %s section digest mismatch (corrupted in transit?)", m.ID)
	}
	if err := m.readSection(sec); err != nil {
		return nil, fmt.Errorf("mobilecode: module %s section: %w", m.ID, err)
	}
	if err := m.wellFormed(); err != nil {
		return nil, err
	}
	return m, nil
}

// readSection parses the section into p; the programs alias sec.
func (p *Payload) readSection(sec []byte) error {
	r := wire.NewReader(sec, true)
	p.Protocol = r.Str()
	p.Encode = r.Bytes()
	p.Decode = r.Bytes()
	if n, ok := r.Count(); ok {
		p.Params = make(map[string]string, n)
		prev := ""
		for i := 0; i < n && r.Err() == nil; i++ {
			k, v := r.Str(), r.Str()
			if i > 0 && k <= prev {
				return fmt.Errorf("param %q out of order or repeated", k)
			}
			p.Params[k], prev = v, k
		}
	}
	return r.Done()
}
