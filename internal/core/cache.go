package core

// CacheKey identifies one negotiation outcome: the paper's adaptation
// cache maps { DevMeta, Application ID, NtwkMeta } to the PADMeta array
// the client needs. Principal extends the key for the access-control
// extension — two clients with identical environments but different
// authorization must not share results.
type CacheKey struct {
	AppID     string
	Principal string
	Dev       DevMeta
	Ntwk      NtwkMeta
}

// String renders the canonical key ("app=%s|who=%s|%s|%s" over the Dev and
// Ntwk fragments), built in a single buffer so the negotiation hot path
// pays one allocation for the whole key.
func (k CacheKey) String() string {
	b := make([]byte, 0, 128)
	b = append(b, "app="...)
	b = append(b, k.AppID...)
	b = append(b, "|who="...)
	b = append(b, k.Principal...)
	b = append(b, '|')
	b = k.Dev.appendKey(b)
	b = append(b, '|')
	b = k.Ntwk.appendKey(b)
	return string(b)
}

// CacheStats counts adaptation-cache behaviour: one lookup per
// negotiation, a hit or a miss, and the entries evicted to make room.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}
