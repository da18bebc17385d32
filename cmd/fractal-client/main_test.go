package main

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"fractal/internal/deploy"
	"fractal/internal/mobilecode"
)

func TestEnvFor(t *testing.T) {
	for device, wantNet := range map[string]string{
		"desktop": "LAN",
		"Laptop":  "WLAN",
		"PDA":     "Bluetooth",
	} {
		env, err := envFor(device)
		if err != nil {
			t.Fatalf("%s: %v", device, err)
		}
		if env.Ntwk.NetworkType != wantNet {
			t.Errorf("%s network = %s, want %s", device, env.Ntwk.NetworkType, wantNet)
		}
	}
	if _, err := envFor("mainframe"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestLoadTrust(t *testing.T) {
	signer, err := mobilecode.NewSigner("operator")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trust.key")
	content := "operator\n" + hex.EncodeToString(signer.PublicKey()) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	trust, err := deploy.LoadTrust(path)
	if err != nil {
		t.Fatal(err)
	}
	var digest [20]byte
	sig := signer.Sign("pad", "1.0", digest)
	if err := trust.Verify("operator", "pad", "1.0", digest, sig); err != nil {
		t.Fatalf("the loaded key does not verify the operator's signature: %v", err)
	}
	if err := trust.Verify("intruder", "pad", "1.0", digest, sig); err == nil {
		t.Fatal("an entity absent from the trust file verified")
	}
}

func TestLoadTrustErrors(t *testing.T) {
	if _, err := deploy.LoadTrust(""); err == nil {
		t.Error("empty path accepted")
	}
	dir := t.TempDir()
	if _, err := deploy.LoadTrust(filepath.Join(dir, "absent")); err == nil {
		t.Error("missing file accepted")
	}
	oneLine := filepath.Join(dir, "one.key")
	if err := os.WriteFile(oneLine, []byte("only-entity\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.LoadTrust(oneLine); err == nil {
		t.Error("one-line file accepted")
	}
	badHex := filepath.Join(dir, "hex.key")
	if err := os.WriteFile(badHex, []byte("e\nnot-hex\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.LoadTrust(badHex); err == nil {
		t.Error("bad hex accepted")
	}
	shortKey := filepath.Join(dir, "short.key")
	if err := os.WriteFile(shortKey, []byte("e\nabcd\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.LoadTrust(shortKey); err == nil {
		t.Error("short key accepted")
	}
}

func TestLoadFallback(t *testing.T) {
	dir := t.TempDir()
	trustPath := filepath.Join(dir, "trust.key")
	if got, err := deploy.LoadFallback(trustPath); err != nil || got != nil {
		t.Fatalf("no published module: got %d bytes, err %v; want nil, nil", len(got), err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pad-direct.fmc"), []byte("module"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := deploy.LoadFallback(trustPath); err != nil || string(got) != "module" {
		t.Fatalf("published module: got %q, err %v", got, err)
	}
}
