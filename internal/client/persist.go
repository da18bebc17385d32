package client

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"fractal/internal/core"
)

// persistedCache is the on-disk form of the client's protocol cache: the
// PADMeta the client negotiated per application, keyed by the environment
// and session length it negotiated under, so a device/network change or a
// different session length invalidates the entry naturally on load.
type persistedCache struct {
	EnvKey string                    `json:"env_key"`
	Apps   map[string][]core.PADMeta `json:"apps"`
}

// envKey canonicalizes what a negotiation result depends on for cache
// binding: the environment and the session length Eq. 3 amortizes a PAD
// download over.
func envKey(env core.Env, sessionRequests int) string {
	return env.Dev.Key() + "|" + env.Ntwk.Key() + "|" + strconv.Itoa(sessionRequests)
}

// SaveProtocolCache writes the protocol cache to path so a later session
// on the same device can skip negotiation entirely (though it still
// re-downloads PAD modules, which are not persisted). A degraded entry is
// left out: it records that the adaptation plane was down, not what it
// would choose, so a later session negotiates afresh. The write is
// crash-safe: the cache lands in a temp file in the same directory and is
// atomically renamed over path, so a crash mid-save leaves either the old
// complete cache or the new complete cache — never a truncated file.
func (c *Client) SaveProtocolCache(path string) error {
	c.mu.Lock()
	out := persistedCache{
		EnvKey: envKey(c.cfg.Env, c.cfg.SessionRequests),
		Apps:   map[string][]core.PADMeta{},
	}
	for app, p := range c.protocolCache {
		if !p.degraded {
			out.Apps[app] = append([]core.PADMeta(nil), p.pads...)
		}
	}
	c.mu.Unlock()
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("client: encoding protocol cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("client: writing protocol cache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := tmp.Chmod(0o600); err != nil {
		tmp.Close()
		return fmt.Errorf("client: writing protocol cache: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("client: writing protocol cache: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("client: syncing protocol cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("client: writing protocol cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("client: committing protocol cache: %w", err)
	}
	return nil
}

// LoadProtocolCache restores a saved protocol cache. Entries recorded
// under another environment or session length than the client's are
// discarded (the negotiation result depends on both). It returns the
// number of applications restored. A cache that does not parse — e.g.
// truncated by a crash predating the atomic-rename save — is treated as
// absent (0 restored, no error): the protocol cache is an optimization,
// and the client simply renegotiates.
func (c *Client) LoadProtocolCache(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("client: reading protocol cache: %w", err)
	}
	var in persistedCache
	if err := json.Unmarshal(raw, &in); err != nil {
		return 0, nil // corrupt/truncated: fall back to negotiation
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if in.EnvKey != envKey(c.cfg.Env, c.cfg.SessionRequests) {
		return 0, nil // stale: recorded for a different environment or session length
	}
	n := 0
	for app, pads := range in.Apps {
		if len(pads) == 0 {
			continue
		}
		ok := true
		for _, p := range pads {
			if p.Validate() != nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		c.protocolCache[app] = newProtocol(pads)
		n++
	}
	return n, nil
}
