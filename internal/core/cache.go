package core

import "strconv"

// CacheKey identifies one negotiation outcome: the paper's adaptation
// cache maps { DevMeta, Application ID, NtwkMeta } to the PADMeta array
// the client needs. Principal extends the key for the access-control
// extension — two clients with identical environments but different
// authorization must not share results. SessionRequests is the session
// length the search amortizes the PAD download over (Eq. 3), so two
// session lengths may choose different paths and must not share one
// either.
type CacheKey struct {
	AppID           string
	Principal       string
	Dev             DevMeta
	Ntwk            NtwkMeta
	SessionRequests int
}

// String renders the canonical key ("app=%s|who=%s|%s|%s|req=%d" over the
// Dev and Ntwk fragments) with one allocation for the whole key.
func (k CacheKey) String() string { return string(k.Append(make([]byte, 0, 128))) }

// Append appends the canonical key to b, so a caller with storage of its
// own looks a key up without allocating it.
func (k CacheKey) Append(b []byte) []byte {
	b = append(b, "app="...)
	b = append(b, k.AppID...)
	b = append(b, "|who="...)
	b = append(b, k.Principal...)
	b = append(b, '|')
	b = k.Dev.appendKey(b)
	b = append(b, '|')
	b = k.Ntwk.appendKey(b)
	b = append(b, "|req="...)
	return strconv.AppendInt(b, int64(k.SessionRequests), 10)
}

// CacheStats counts adaptation-cache behaviour: one lookup per
// negotiation, a hit or a miss, and the entries evicted to make room.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}
