package proxy

import (
	"strings"
	"testing"

	"fractal/internal/core"
)

// AuthorizerFunc adapts a function to the Authorizer interface.
type AuthorizerFunc func(principal, appID string, pad core.PADMeta) bool

// Allow implements Authorizer.
func (f AuthorizerFunc) Allow(principal, appID string, pad core.PADMeta) bool {
	return f(principal, appID, pad)
}

// policy builds a table from rules, failing the test on a rejected one.
func policy(t *testing.T, rules map[string][]string) *PolicyTable {
	t.Helper()
	pt, err := NewPolicyTable(rules)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestPolicyTableBasics(t *testing.T) {
	pt := policy(t, map[string][]string{"guest": {"direct", "gzip"}, "banned": nil})
	pad := func(proto string) core.PADMeta { return core.PADMeta{ID: "p", Protocol: proto} }
	// Unrestricted principals get everything.
	if !pt.Allow("alice", "app", pad("varyblock")) {
		t.Fatal("unrestricted principal denied")
	}
	if pt.Allow("guest", "app", pad("varyblock")) {
		t.Fatal("restricted principal allowed disallowed protocol")
	}
	if !pt.Allow("guest", "app", pad("gzip")) {
		t.Fatal("restricted principal denied allowed protocol")
	}
	if pt.Allow("banned", "app", pad("direct")) {
		t.Fatal("principal with an empty list allowed a protocol")
	}
	if _, err := NewPolicyTable(map[string][]string{"": {"direct"}}); err == nil {
		t.Fatal("anonymous restriction accepted")
	}
	if _, err := NewPolicyTable(map[string][]string{"x": {""}}); err == nil {
		t.Fatal("empty protocol accepted")
	}
}

func TestNegotiateForAppliesPolicy(t *testing.T) {
	p := newTestProxy(t)
	// The PDA environment normally negotiates bitmap; deny it for guest.
	p.SetAuthorizer(policy(t, map[string][]string{"guest": {"direct", "gzip"}}))

	admin, err := p.NegotiateFor("admin", "webapp", pdaEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if admin[0].Protocol != "bitmap" {
		t.Fatalf("admin negotiated %s, want bitmap", admin[0].Protocol)
	}
	guest, err := p.NegotiateFor("guest", "webapp", pdaEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if guest[0].Protocol == "bitmap" {
		t.Fatal("guest was granted a denied protocol")
	}
	if guest[0].Protocol != "gzip" {
		t.Fatalf("guest negotiated %s, want the next-best allowed (gzip)", guest[0].Protocol)
	}
}

func TestNegotiateForCacheIsolation(t *testing.T) {
	p := newTestProxy(t)
	p.SetAuthorizer(policy(t, map[string][]string{"guest": {"direct"}}))
	// Same environment, different principals: results must not be shared
	// through the adaptation cache.
	full, err := p.NegotiateFor("admin", "webapp", pdaEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := p.NegotiateFor("guest", "webapp", pdaEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if full[0].Protocol == restricted[0].Protocol {
		t.Fatalf("cache leaked %s across principals", full[0].Protocol)
	}
	// Repeat negotiations hit per-principal entries.
	before := p.Stats().CacheHits
	if _, err := p.NegotiateFor("guest", "webapp", pdaEnv(), 75); err != nil {
		t.Fatal(err)
	}
	if p.Stats().CacheHits != before+1 {
		t.Fatal("per-principal cache entry missing")
	}
}

func TestNegotiateForDenyAllFails(t *testing.T) {
	p := newTestProxy(t)
	p.SetAuthorizer(AuthorizerFunc(func(principal, appID string, pad core.PADMeta) bool {
		return principal != "banned"
	}))
	_, err := p.NegotiateFor("banned", "webapp", desktopEnv(), 75)
	if err == nil || !strings.Contains(err.Error(), "no feasible adaptation path") {
		t.Fatalf("err = %v, want no-feasible-path for fully denied principal", err)
	}
	if _, err := p.NegotiateFor("ok", "webapp", desktopEnv(), 75); err != nil {
		t.Fatalf("unrelated principal affected: %v", err)
	}
}

func TestSetAuthorizerNilAllowsAll(t *testing.T) {
	p := newTestProxy(t)
	p.SetAuthorizer(policy(t, map[string][]string{"guest": {"direct"}}))
	p.SetAuthorizer(nil)
	pads, err := p.NegotiateFor("guest", "webapp", pdaEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if pads[0].Protocol != "bitmap" {
		t.Fatalf("policy still applied after clearing: %s", pads[0].Protocol)
	}
}
