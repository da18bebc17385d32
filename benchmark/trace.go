package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fractal/internal/client"
	"fractal/internal/core"
	"fractal/internal/inp"
)

// Span names. A span is recorded around each call the benchmark makes into
// a layer through an interface it injected; nothing inside the product is
// instrumented.
const (
	spSession     = "session"
	spEnsure      = "client.ensure"
	spRequest     = "client.request"
	spDial        = "client.dial"
	spNegotiate   = "client.negotiate"
	spFetchPAD    = "client.fetch_pad"
	spAppExchange = "client.app_exchange"
)

// span is one timed call. Parent is the enclosing span's ID (0 = root); Op
// is the worker-local op index, shared by every span of one op.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Worker  int    `json:"worker"`
	Name    string `json:"name"`
	Tag     string `json:"tag,omitempty"` // negotiated protocol, where known
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer owns the span IDs and the clock origin of one traced pass.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
}

// workerTrace records the spans of one worker. Calls within a worker nest
// strictly (the client stack is synchronous), so the open spans form a
// stack and a span's parent is whatever was open when it began. A nil
// *workerTrace records nothing, which is how the measured pass runs.
type workerTrace struct {
	tr     *tracer
	worker int
	op     int64
	open   []int // indices into spans
	spans  []span
}

func (t *tracer) worker(i int) *workerTrace {
	return &workerTrace{tr: t, worker: i}
}

// setOp names the op the spans that follow belong to.
func (w *workerTrace) setOp(n int) {
	if w != nil {
		w.op = int64(n)
	}
}

func (w *workerTrace) begin(name string) int {
	if w == nil {
		return -1
	}
	var parent int64
	if n := len(w.open); n > 0 {
		parent = w.spans[w.open[n-1]].ID
	}
	w.spans = append(w.spans, span{
		ID: w.tr.nextID.Add(1), Parent: parent, Op: w.op, Worker: w.worker,
		Name: name, StartNs: time.Since(w.tr.origin).Nanoseconds(),
	})
	i := len(w.spans) - 1
	w.open = append(w.open, i)
	return i
}

func (w *workerTrace) end(i int, tag string) {
	if w == nil {
		return
	}
	w.spans[i].EndNs = time.Since(w.tr.origin).Nanoseconds()
	w.spans[i].Tag = tag
	w.open = w.open[:len(w.open)-1]
}

// spanStat is the total duration, self time (duration minus the part
// covered by direct children) and call count of one span name.
type spanStat struct {
	totalNs, selfNs, calls int64
}

func (s spanStat) meanUs() float64     { return ratio(s.totalNs, s.calls) / 1e3 }
func (s spanStat) selfMeanUs() float64 { return ratio(s.selfNs, s.calls) / 1e3 }

// summarize folds spans by name, and by name+"."+tag where a tag is set.
func summarize(spans []span) map[string]spanStat {
	children := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]spanStat{}
	add := func(key string, dur, self int64) {
		st := out[key]
		st.totalNs += dur
		st.selfNs += self
		st.calls++
		out[key] = st
	}
	for _, s := range spans {
		dur := s.EndNs - s.StartNs
		self := dur - children[s.ID]
		add(s.Name, dur, self)
		if s.Tag != "" {
			add(s.Name+"."+s.Tag, dur, self)
		}
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- (a) wrapper spans around the interfaces the benchmark injects ---

type tracedNegotiator struct {
	client.Negotiator
	wt *workerTrace
}

func (n tracedNegotiator) Negotiate(app string, env core.Env, reqs int) ([]core.PADMeta, error) {
	sp := n.wt.begin(spNegotiate)
	pads, err := n.Negotiator.Negotiate(app, env, reqs)
	n.wt.end(sp, "")
	return pads, err
}

type tracedPADFetcher struct {
	client.PADFetcher
	wt *workerTrace
}

func (f tracedPADFetcher) FetchPAD(meta core.PADMeta) ([]byte, error) {
	sp := f.wt.begin(spFetchPAD)
	b, err := f.PADFetcher.FetchPAD(meta)
	f.wt.end(sp, "")
	return b, err
}

// reqClass is what the server had to do for one request: the client held
// nothing, an older version, or the current one.
type reqClass int

const (
	classCold reqClass = iota
	classDiff
	classCurrent
	numClasses
)

var classNames = [numClasses]string{"cold", "diff", "current"}

// tracedContent times the APP_REQ/APP_REP exchange and counts requests by
// class, which weights the replayed layer times.
type tracedContent struct {
	client.ContentFetcher
	wt    *workerTrace
	class *[numClasses]int64
}

func (c tracedContent) FetchContent(req inp.AppReq) (inp.AppRep, error) {
	sp := c.wt.begin(spAppExchange)
	rep, err := c.ContentFetcher.FetchContent(req)
	c.wt.end(sp, "")
	if err == nil {
		switch {
		case req.HaveVersion == 0:
			c.class[classCold]++
		case req.HaveVersion == rep.Version:
			c.class[classCurrent]++
		default:
			c.class[classDiff]++
		}
	}
	return rep, err
}

// lingerDial is the DialFunc every client connection goes through. It sets
// SO_LINGER 0 so a close sends RST and leaves no TIME_WAIT socket: the
// first-contact workload opens ~50k short connections per run and must not
// exhaust the ephemeral port range across back-to-back runs.
func lingerDial(network, addr string) (net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// tracedDial times the dial and returns a connection that counts the
// client side's bytes and calls.
func tracedDial(wt *workerTrace, t *tap) client.DialFunc {
	return func(network, addr string) (net.Conn, error) {
		sp := wt.begin(spDial)
		conn, err := lingerDial(network, addr)
		wt.end(sp, "")
		if err != nil {
			return nil, err
		}
		return &tapConn{Conn: conn, tap: t}, nil
	}
}

// --- (a) listener and connection taps ---

// tap accumulates what crossed a set of connections.
type tap struct {
	readBytes, writeBytes atomic.Int64
	reads, writes         atomic.Int64
	// serviceNs/services time, on a server-side connection, the request's
	// last byte read to the reply's last byte written.
	serviceNs, services atomic.Int64
}

// tapCounts is a tap read at one moment; a pass's share is the difference
// of two.
type tapCounts struct {
	readBytes, writeBytes, reads, writes, serviceNs, services int64
}

func (t *tap) counts() tapCounts {
	return tapCounts{
		readBytes: t.readBytes.Load(), writeBytes: t.writeBytes.Load(),
		reads: t.reads.Load(), writes: t.writes.Load(),
		serviceNs: t.serviceNs.Load(), services: t.services.Load(),
	}
}

func (c tapCounts) since(base tapCounts) tapCounts {
	return tapCounts{
		readBytes: c.readBytes - base.readBytes, writeBytes: c.writeBytes - base.writeBytes,
		reads: c.reads - base.reads, writes: c.writes - base.writes,
		serviceNs: c.serviceNs - base.serviceNs, services: c.services - base.services,
	}
}

func (c tapCounts) serviceMeanUs() float64 {
	return ratio(c.serviceNs, c.services) / 1e3
}

type tapListener struct {
	net.Listener
	tap *tap
}

func (l *tapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: conn, tap: l.tap, server: true}, nil
}

// tapConn counts bytes and calls. On the server side it also recognises
// exchanges from the outside: a request ends at the last Read that returned
// before the first Write of the reply, and the reply ends at the last Write
// before the next Read returns (or the connection closes). INP is strict
// request/reply per connection, so no parsing is needed.
type tapConn struct {
	net.Conn
	tap    *tap
	server bool

	mu        sync.Mutex // Close may race the serving goroutine
	lastRead  time.Time
	reqEnd    time.Time
	lastWrite time.Time
	replying  bool
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.reads.Add(1)
	c.tap.readBytes.Add(int64(n))
	if c.server {
		now := time.Now()
		c.mu.Lock()
		c.finishLocked()
		if n > 0 {
			c.lastRead = now
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tap.writes.Add(1)
	c.tap.writeBytes.Add(int64(n))
	if c.server {
		now := time.Now()
		c.mu.Lock()
		if !c.replying {
			c.replying = true
			c.reqEnd = c.lastRead
		}
		c.lastWrite = now
		c.mu.Unlock()
	}
	return n, err
}

func (c *tapConn) Close() error {
	if c.server {
		c.mu.Lock()
		c.finishLocked()
		c.mu.Unlock()
	}
	return c.Conn.Close()
}

func (c *tapConn) finishLocked() {
	if c.replying {
		c.replying = false
		c.tap.serviceNs.Add(c.lastWrite.Sub(c.reqEnd).Nanoseconds())
		c.tap.services.Add(1)
	}
}
