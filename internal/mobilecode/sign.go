package mobilecode

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha1"
	"crypto/subtle"
	"fmt"
	"sync"
)

// DigestEqual reports whether two SHA-1 payload digests match, in constant
// time. It is the single designated digest comparison of the deployment
// pipeline: signature checks go through ed25519.Verify and digest checks
// go through here, which the digestsafe analyzer (internal/analysis)
// enforces across mobilecode, cdn, and client.
func DigestEqual(a, b [sha1.Size]byte) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// Signer produces code signatures for PAD modules, the paper's
// code-signing mechanism (Section 3.5): clients manage a list of entities
// they trust and verify that every PAD was signed by one of them.
type Signer struct {
	Entity string
	priv   ed25519.PrivateKey
	pub    ed25519.PublicKey
}

// NewSigner generates a fresh signing identity for an entity (typically
// the application-server operator).
func NewSigner(entity string) (*Signer, error) {
	if entity == "" {
		return nil, fmt.Errorf("mobilecode: signer needs a non-empty entity name")
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("mobilecode: generating signing key: %w", err)
	}
	return &Signer{Entity: entity, priv: priv, pub: pub}, nil
}

// PublicKey returns the verification key to be placed on client trust
// lists.
func (s *Signer) PublicKey() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), s.pub...)
}

// Sign signs a module digest (with the module identity mixed in so a
// signature cannot be transplanted onto a different PAD).
func (s *Signer) Sign(id, version string, digest [sha1.Size]byte) []byte {
	return ed25519.Sign(s.priv, signedMessage(id, version, digest))
}

// signedMessage binds the signature to the module identity and payload
// digest.
func signedMessage(id, version string, digest [sha1.Size]byte) []byte {
	msg := make([]byte, 0, len(id)+len(version)+sha1.Size+2)
	msg = append(msg, id...)
	msg = append(msg, 0)
	msg = append(msg, version...)
	msg = append(msg, 0)
	msg = append(msg, digest[:]...)
	return msg
}

// TrustList is the client's set of trusted signing entities. It is safe
// for concurrent use.
type TrustList struct {
	mu   sync.RWMutex
	keys map[string]ed25519.PublicKey
}

// NewTrustList returns an empty trust list.
func NewTrustList() *TrustList {
	return &TrustList{keys: map[string]ed25519.PublicKey{}}
}

// Add trusts an entity's public key. Re-adding an entity replaces its key.
func (t *TrustList) Add(entity string, key ed25519.PublicKey) error {
	if entity == "" {
		return fmt.Errorf("mobilecode: trust list: empty entity name")
	}
	if len(key) != ed25519.PublicKeySize {
		return fmt.Errorf("mobilecode: trust list: bad key size %d for %q", len(key), entity)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keys[entity] = append(ed25519.PublicKey(nil), key...)
	return nil
}

// Verify checks that sig is a valid signature over the module identity by
// the named entity and that the entity is trusted.
func (t *TrustList) Verify(entity, id, version string, digest [sha1.Size]byte, sig []byte) error {
	t.mu.RLock()
	key, ok := t.keys[entity]
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("mobilecode: signing entity %q is not on the trust list", entity)
	}
	if !ed25519.Verify(key, signedMessage(id, version, digest), sig) {
		return fmt.Errorf("mobilecode: signature by %q over PAD %s/%s does not verify", entity, id, version)
	}
	return nil
}
