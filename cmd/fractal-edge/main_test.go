package main

import (
	"os"
	"path/filepath"
	"testing"

	"fractal/internal/mobilecode"
)

func writeModules(t *testing.T, dir string) int {
	t.Helper()
	signer, err := mobilecode.NewSigner("op")
	if err != nil {
		t.Fatal(err)
	}
	specs := mobilecode.BuiltinSpecs()
	for _, spec := range specs {
		m, err := mobilecode.BuildModule(spec, "1.0", signer)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, m.ID+".fmc"), packed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(specs)
}

func TestLoadModuleDir(t *testing.T) {
	dir := t.TempDir()
	want := writeModules(t, dir)
	// Unrelated files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "trust.key"), []byte("x\ny\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, loaded, err := loadModuleDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != want {
		t.Fatalf("loaded %d, want %d", loaded, want)
	}
	data, err := store.Get("/pads/pad-gzip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mobilecode.Unpack(data); err != nil {
		t.Fatalf("stored module corrupt: %v", err)
	}
}

func TestLoadModuleDirErrors(t *testing.T) {
	if _, _, err := loadModuleDir(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing directory accepted")
	}
	empty := t.TempDir()
	if _, _, err := loadModuleDir(empty); err == nil {
		t.Error("empty directory accepted")
	}
	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, "bad.fmc"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadModuleDir(corrupt); err == nil {
		t.Error("corrupt module accepted")
	}
}
