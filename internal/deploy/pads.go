package deploy

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"

	"fractal/internal/appserver"
	"fractal/internal/cdn"
	"fractal/internal/mobilecode"
)

// The publish directory is how an application server hands its PADs to
// PAD servers and its signing key to clients: one packed module per PAD
// as <id>.fmc, and trust.key holding "<entity>\n<hex ed25519 key>\n".
// This file is the only code that knows that layout.
const moduleExt = ".fmc"

// Publish writes app's packed PAD modules and its trust key to dir.
func Publish(app *appserver.Server, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	store := cdn.NewOrigin()
	if err := app.PublishPADs(store); err != nil {
		return err
	}
	for _, url := range store.Paths() {
		packed, err := store.Get(url)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, path.Base(url)+moduleExt), packed, 0o644); err != nil {
			return err
		}
	}
	entity, key := app.TrustedKey()
	trust := fmt.Sprintf("%s\n%s\n", entity, hex.EncodeToString(key))
	return os.WriteFile(filepath.Join(dir, "trust.key"), []byte(trust), 0o644)
}

// LoadModules loads every module in dir into a store, keyed by the URL
// its PADMeta names it by ("/pads/<id>"). Each must unpack first: a
// corrupt module in a store would fail every client.
func LoadModules(dir string) (*cdn.Origin, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", dir, err)
	}
	store := cdn.NewOrigin()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), moduleExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		m, err := mobilecode.Unpack(data)
		if err != nil {
			return nil, fmt.Errorf("%s is not a valid PAD module: %w", e.Name(), err)
		}
		if err := store.Publish("/pads/"+m.ID, data); err != nil {
			return nil, err
		}
	}
	if len(store.Paths()) == 0 {
		return nil, fmt.Errorf("no PAD modules in %s", dir)
	}
	return store, nil
}

// DirModules is the proxy's module source over dir: each lookup loads
// the directory afresh through LoadModules and finds url among the loaded
// modules, so no file path is ever built from a pushed URL.
func DirModules(dir string) func(url string) ([]byte, error) {
	return func(url string) ([]byte, error) {
		store, err := LoadModules(dir)
		if err != nil {
			return nil, err
		}
		return store.Get(url)
	}
}

// LoadTrust reads a trust key file written by Publish.
func LoadTrust(trustPath string) (*mobilecode.TrustList, error) {
	if trustPath == "" {
		return nil, errors.New("a trust key file is required (written by fractal-server -publish)")
	}
	raw, err := os.ReadFile(trustPath)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		return nil, fmt.Errorf("trust file %s: want 2 lines (entity, hex key), got %d", trustPath, len(lines))
	}
	key, err := hex.DecodeString(strings.TrimSpace(lines[1]))
	if err != nil {
		return nil, fmt.Errorf("trust file %s: bad key: %w", trustPath, err)
	}
	return trustList(strings.TrimSpace(lines[0]), key)
}

// LoadFallback reads the Direct module a client degrades to, published
// beside the trust key, or returns nil when there is none.
func LoadFallback(trustPath string) ([]byte, error) {
	module, err := os.ReadFile(filepath.Join(filepath.Dir(trustPath), "pad-direct"+moduleExt))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return module, err
}
