package mobilecode

import (
	"errors"
	"fmt"

	"fractal/internal/codec"
)

// Loader performs the client-side deployment pipeline of Section 3.5:
// unpack the downloaded module, check the SHA-1 payload digest, verify the
// code signature against the trust list, then instantiate the programs in
// a sandboxed VM. The result is a DeployedPAD the application session can
// use as its protocol.
type Loader struct {
	trust   *TrustList
	sandbox Sandbox
	verify  VerifyFunc
}

// VerifyFunc is a static bytecode verifier run by Load on each program of
// a module after the digest and signature checks succeed and before the
// sandboxed VM is instantiated. role is "encode" or "decode"; hosts is the
// capability set the program will execute against. A non-nil error rejects
// the module — a verifier rejection is a security failure, exactly like a
// bad signature. internal/mobilecode/verify provides the implementation;
// the indirection keeps this package free of a dependency on its own
// subpackage.
type VerifyFunc func(role string, p Program, hosts []HostFunc, sb Sandbox) error

// NewLoader builds a loader. A nil trust list refuses every module.
func NewLoader(trust *TrustList, sb Sandbox) (*Loader, error) {
	if err := sb.Validate(); err != nil {
		return nil, err
	}
	return &Loader{trust: trust, sandbox: sb}, nil
}

// SetVerifier installs a static bytecode verifier into the deployment
// pipeline. Production deploy paths (client hosts, the appserver's
// VM-composition fallback) install verify.LoaderVerifier(); a nil verifier
// restores the historical digest+signature-only pipeline.
func (l *Loader) SetVerifier(v VerifyFunc) { l.verify = v }

// DeployedPAD is an instantiated protocol adaptor: verified mobile code
// ready to encode/decode application content on this host. It is safe for
// concurrent use. Encode and Decode never modify their inputs, and — as
// VM.Run does — may return a result that aliases one (pad-direct returns
// the payload itself).
type DeployedPAD struct {
	module *Module
	proto  string
	vm     *VM
	enc    Program
	dec    Program
	chunks *codec.ChunkCache
}

// Load verifies and instantiates a packed module.
func (l *Loader) Load(packed []byte) (*DeployedPAD, error) {
	m, err := Unpack(packed)
	if err != nil {
		return nil, err
	}
	if l.trust == nil {
		return nil, fmt.Errorf("mobilecode: no trust list configured; refusing PAD %s", m.ID)
	}
	if err := l.trust.Verify(m.Entity, m.ID, m.Version, m.Digest, m.Sig); err != nil {
		return nil, err
	}
	p, err := m.DecodePayload()
	if err != nil {
		return nil, err
	}
	enc, err := UnmarshalProgram(p.Encode)
	if err != nil {
		return nil, fmt.Errorf("mobilecode: PAD %s encode program: %w", m.ID, err)
	}
	dec, err := UnmarshalProgram(p.Decode)
	if err != nil {
		return nil, fmt.Errorf("mobilecode: PAD %s decode program: %w", m.ID, err)
	}
	hosts, chunks, err := HostTableWithCache(p.Params)
	if err != nil {
		return nil, fmt.Errorf("mobilecode: PAD %s: %w", m.ID, err)
	}
	if l.verify != nil {
		if err := l.verify("encode", enc, hosts, l.sandbox); err != nil {
			return nil, fmt.Errorf("mobilecode: PAD %s encode program: %w", m.ID, err)
		}
		if err := l.verify("decode", dec, hosts, l.sandbox); err != nil {
			return nil, fmt.Errorf("mobilecode: PAD %s decode program: %w", m.ID, err)
		}
	}
	vm, err := NewVM(hosts, l.sandbox)
	if err != nil {
		return nil, err
	}
	return &DeployedPAD{module: m, proto: p.Protocol, vm: vm, enc: enc, dec: dec, chunks: chunks}, nil
}

// ID returns the PAD's module identifier.
func (d *DeployedPAD) ID() string { return d.module.ID }

// Name returns the protocol name the PAD implements.
func (d *DeployedPAD) Name() string { return d.proto }

// Module returns the underlying verified module.
func (d *DeployedPAD) Module() *Module { return d.module }

// ChunkCacheStats reports the counters of the chunk-index cache of the
// PAD's vary.encode primitive. Nothing else touches it, so on a PAD used
// only to decode every counter stays zero.
func (d *DeployedPAD) ChunkCacheStats() codec.ChunkCacheStats { return d.chunks.Stats() }

// run executes a program with the calling convention shared by both
// directions: the initial buffer stack is [a, b] (b on top) and the result
// is the top buffer of the final stack.
func (d *DeployedPAD) run(p Program, a, b []byte) ([]byte, error) {
	out, err := d.vm.Run(p, [][]byte{a, b})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("mobilecode: PAD program left no result buffer")
	}
	return out[len(out)-1], nil
}

// Encode implements the server/sender direction: produce the wire payload
// for cur given the receiver holds old.
func (d *DeployedPAD) Encode(old, cur []byte) ([]byte, error) {
	return d.run(d.enc, old, cur)
}

// Decode implements the client/receiver direction: reconstruct cur from
// the payload and the held old version.
func (d *DeployedPAD) Decode(old, payload []byte) ([]byte, error) {
	return d.run(d.dec, old, payload)
}
