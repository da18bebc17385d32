package deploy

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fractal/internal/appserver"
	"fractal/internal/mobilecode"
	"fractal/internal/workload"
)

func TestPublishModulesWritesModulesAndTrustKey(t *testing.T) {
	signer, err := mobilecode.NewSigner("op")
	if err != nil {
		t.Fatal(err)
	}
	app, err := appserver.New("webapp", signer)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := workload.Generate(workload.Config{Pages: 1, TextBytes: 64, Images: 0, ImageBytes: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.InstallCorpus(v1); err != nil {
		t.Fatal(err)
	}
	if err := app.DeployPADs("1.0"); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "pads")
	if err := Publish(app, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mods, trustSeen := 0, false
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".fmc"):
			mods++
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m, err := mobilecode.Unpack(data)
			if err != nil {
				t.Fatalf("%s does not unpack: %v", e.Name(), err)
			}
			if e.Name() != m.ID+".fmc" {
				t.Fatalf("module file %s does not match module id %s", e.Name(), m.ID)
			}
		case e.Name() == "trust.key":
			trustSeen = true
		}
	}
	if mods != 4 {
		t.Fatalf("published %d modules, want 4", mods)
	}
	if !trustSeen {
		t.Fatal("trust.key not written")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trust.key"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "op" {
		t.Fatalf("trust key format: %q", raw)
	}
}

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
	store, err := LoadModules(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded := len(store.Paths()); loaded != want {
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
	if _, err := LoadModules(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing directory accepted")
	}
	empty := t.TempDir()
	if _, err := LoadModules(empty); err == nil {
		t.Error("empty directory accepted")
	}
	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, "bad.fmc"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModules(corrupt); err == nil {
		t.Error("corrupt module accepted")
	}
}

// smallApp is a four-page application server, the shipped assembly at a
// size a test builds in milliseconds.
func smallApp(t testing.TB) *App {
	t.Helper()
	app, err := NewApp("webapp", 4, 2005, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestPublishDirRoundTrip: what Publish writes, the edge loads and serves
// every PAD the AppMeta names, and the client's trust key and fallback
// module from the same directory pass the client loader's checks.
func TestPublishDirRoundTrip(t *testing.T) {
	app := smallApp(t)
	dir := t.TempDir()
	if err := Publish(app.Server, dir); err != nil {
		t.Fatal(err)
	}
	store, err := LoadModules(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded := len(store.Paths()); loaded != len(app.Meta.PADs) {
		t.Fatalf("edge loaded %d modules, AppMeta names %d", loaded, len(app.Meta.PADs))
	}
	trust, err := LoadTrust(filepath.Join(dir, "trust.key"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := mobilecode.NewLoader(trust, mobilecode.DefaultSandbox())
	if err != nil {
		t.Fatal(err)
	}
	for _, meta := range app.Meta.PADs {
		packed, err := store.Get(meta.URL)
		if err != nil {
			t.Fatalf("edge does not serve %s: %v", meta.URL, err)
		}
		pad, err := loader.Load(packed)
		if err != nil {
			t.Fatalf("%s fails the client's checks: %v", meta.ID, err)
		}
		if !mobilecode.DigestEqual(pad.Module().Digest, meta.Digest) {
			t.Fatalf("%s: served module digest differs from AppMeta", meta.ID)
		}
	}
	fallback, err := LoadFallback(filepath.Join(dir, "trust.key"))
	if err != nil || fallback == nil {
		t.Fatalf("fallback module: %d bytes, err %v", len(fallback), err)
	}
	pad, err := loader.Load(fallback)
	if err != nil {
		t.Fatalf("fallback fails the client's checks: %v", err)
	}
	if pad.Name() != "direct" {
		t.Fatalf("fallback protocol %s, want direct", pad.Name())
	}
}

// TestDirModulesRefusesPathShapedURL: the proxy's module lookup finds a
// pushed URL in the loaded map only; a URL that names a file outside the
// directory is refused even though that file exists and unpacks.
func TestDirModulesRefusesPathShapedURL(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "a", "b", "pads")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeModules(t, dir)
	good, err := os.ReadFile(filepath.Join(dir, "pad-direct.fmc"))
	if err != nil {
		t.Fatal(err)
	}
	// Where dir joined with the URL's path would land.
	for _, name := range []string{"x", "x.fmc"} {
		if err := os.WriteFile(filepath.Join(base, "a", name), good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lookup := DirModules(dir)
	for _, url := range []string{"/pads/../../x", "/pads/../../x.fmc", "../../x", "/pads/pad-direct.fmc", "pad-direct"} {
		if _, err := lookup(url); err == nil {
			t.Errorf("lookup of %q succeeded", url)
		}
	}
	if data, err := lookup("/pads/pad-direct"); err != nil || string(data) != string(good) {
		t.Fatalf("lookup of a published module: %d bytes, err %v", len(data), err)
	}
}
