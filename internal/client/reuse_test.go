package client

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"fractal/internal/appserver"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

// reuseProtocols are the builtin PADs a client deploys from the case
// study, each read into reused storage over a TCPAppSession.
var reuseProtocols = []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock}

// tcpClient is a PDA client pinned to the world's PAD for proto whose
// replies arrive over a TCPAppSession to addr, closed with the test.
func tcpClient(tb testing.TB, w *world, addr, proto string) (*Client, core.PADMeta) {
	tb.Helper()
	meta := padFor(tb, w, proto)
	sess, err := DialAppSession(addr, SessionConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = sess.Close() })
	c, err := New(pdaConfig(w.trust), fixedNegotiator{meta}, w.fetcher("region-0", netsim.Bluetooth), sess)
	if err != nil {
		tb.Fatal(err)
	}
	return c, meta
}

// kept is bytes a caller or a Held keeps, and a copy taken when it was
// handed out.
type kept struct {
	what      string
	got, want []byte
}

// keptLog records what a burst of requests handed out.
type keptLog struct {
	mu    sync.Mutex
	items []kept
}

func (l *keptLog) add(what string, got []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, kept{what, got, bytes.Clone(got)})
}

// check fails on anything written since it was handed out.
func (l *keptLog) check(t *testing.T) {
	t.Helper()
	for _, k := range l.items {
		if !bytes.Equal(k.got, k.want) {
			t.Fatalf("%s was overwritten by later replies", k.what)
		}
	}
}

// requestCurrent requests page and fails unless it decodes to the
// server's current version.
func requestCurrent(w *world, c *Client, page string) ([]byte, error) {
	got, err := c.Request("webapp", page)
	if err != nil {
		return nil, err
	}
	want, _, err := w.app.Current(page)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("%s decoded to %d bytes other than the server's %d", page, len(got), len(want))
	}
	return got, nil
}

// TestSessionRepliesOutliveReusedStorage: over loopback TCP, where each
// reply body lands in arena storage its request hands back, through every
// builtin PAD the bytes Request returned and every held version — with,
// under gzip, the stream it records — stay byte-identical after a burst of
// later requests on the same session: cold, differential, current and
// cold again after Forget. Then four goroutines request through one
// Client and one TCPAppSession at once, which -race checks.
func TestSessionRepliesOutliveReusedStorage(t *testing.T) {
	w := buildWorld(t)
	addr := startAppTCP(t, w)
	pages := make([]string, len(w.v2.Pages))
	for i := range pages {
		pages[i] = fmt.Sprintf("page-%03d", i)
	}
	latest, seed := w.v2, int64(300)
	update := func() {
		t.Helper()
		seed++
		next, err := workload.MutateCorpus(latest, workload.DefaultMutation(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.app.InstallCorpus(next); err != nil {
			t.Fatal(err)
		}
		latest = next
	}
	for _, proto := range reuseProtocols {
		t.Run(proto, func(t *testing.T) {
			c, meta := tcpClient(t, w, addr, proto)
			var log keptLog
			request := func(what, page string) {
				t.Helper()
				got, err := requestCurrent(w, c, page)
				if err != nil {
					t.Fatalf("%s request: %v", what, err)
				}
				log.add(what+" "+page, got)
			}
			for _, page := range pages[:3] {
				request("cold", page)
			}
			update()
			for _, page := range pages[:3] {
				request("diff", page)
				request("current", page)
			}
			c.Forget(pages[1])
			request("cold after Forget", pages[1])
			request("current", pages[1])
			for _, page := range pages[3:] {
				request("cold", page)
				request("current", page)
			}
			log.check(t)
			for _, page := range pages {
				h := c.held(page)
				if h == nil {
					t.Fatalf("%s is not held", page)
				}
				want, _, _ := w.app.Current(page)
				if !bytes.Equal(h.Data, want) {
					t.Fatalf("the held version of %s was overwritten", page)
				}
				if proto != codec.NameGzip {
					continue
				}
				// The server's stream for the held version, owned by this
				// reply: a recorded stream overwritten in reused storage
				// no longer matches it, and the version is inflated again.
				rep, err := w.app.FetchContent(inp.AppReq{AppID: "webapp", Resource: page, ProtocolIDs: []string{meta.ID}})
				if err != nil {
					t.Fatal(err)
				}
				if got, err := codec.NewGzip().DecodeHeld(h, rep.Payload); err != nil || !h.Holds(got) {
					t.Fatalf("the stream %s's held version records was overwritten: %v", page, err)
				}
			}

			update()
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 3*len(pages); i++ {
						page := pages[(g+i)%len(pages)]
						if i%5 == g {
							c.Forget(page)
						}
						got, err := requestCurrent(w, c, page)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d request %d: %w", g, i, err)
							return
						}
						log.add(fmt.Sprintf("goroutine %d request %d of %s", g, i, page), got)
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			log.check(t)
		})
	}
}

// BenchmarkRedeliverTCP is a re-request of a held page over loopback
// through Client.Request and a TCPAppSession, the server in the same
// process and proactive, so its side of an op is a lookup of a
// precomputed payload: one op is one page of the world's corpus, held at
// the server's current version, so the reply re-delivers it. B/op and
// allocs/op count both ends.
func BenchmarkRedeliverTCP(b *testing.B) {
	w := buildWorld(b)
	if err := w.app.SetStrategy(appserver.Proactive); err != nil {
		b.Fatal(err)
	}
	addr := startAppTCP(b, w)
	for _, proto := range reuseProtocols[:3] {
		b.Run(proto, func(b *testing.B) {
			c, _ := tcpClient(b, w, addr, proto)
			pages := make([]string, len(w.v2.Pages))
			for i := range pages {
				pages[i] = fmt.Sprintf("page-%03d", i)
				if _, err := requestCurrent(w, c, pages[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page := pages[i%len(pages)]
				got, err := c.Request("webapp", page)
				if err != nil {
					b.Fatal(err)
				}
				if !c.held(page).Holds(got) {
					b.Fatalf("%s was not answered with its held version", page)
				}
			}
		})
	}
}
