package proxy

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"fractal/internal/core"
	"fractal/internal/inp"
)

// BenchmarkNegotiateHot measures the cache-hit fast path: one key, warmed
// once, then hit repeatedly.
func BenchmarkNegotiateHot(b *testing.B) {
	p := newTestProxy(b)
	env := desktopEnv()
	if _, err := p.Negotiate("webapp", env, 75); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Negotiate("webapp", env, 75); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNegotiateCold measures the miss path end to end — key build,
// cache probe, singleflight, compiled path search, cache fill — by giving
// every iteration a distinct environment.
func BenchmarkNegotiateCold(b *testing.B) {
	p := newTestProxy(b)
	env := desktopEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Dev.CPUMHz = float64(1000 + i)
		if _, err := p.Negotiate("webapp", env, 75); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNegotiateParallel measures negotiation throughput across
// GOMAXPROCS goroutines over the one-lock cache: a realistic mix of a few
// hundred distinct client configurations, mostly hits after warmup.
func BenchmarkNegotiateParallel(b *testing.B) {
	p, err := New(testModel(b), 4096)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.PushAppMeta(testApp()); err != nil {
		b.Fatal(err)
	}
	const distinctEnvs = 512
	for i := 0; i < distinctEnvs; i++ {
		env := desktopEnv()
		env.Dev.CPUMHz = float64(1000 + i)
		if _, err := p.Negotiate("webapp", env, 75); err != nil {
			b.Fatal(err)
		}
	}
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		env := desktopEnv()
		for pb.Next() {
			env.Dev.CPUMHz = float64(1000 + ctr.Add(1)%distinctEnvs)
			if _, err := p.Negotiate("webapp", env, 75); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchNegotiation runs one Figure 4 session over a fresh connection,
// like runNegotiation without the *testing.T plumbing.
func benchNegotiation(addr string, env core.Env) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return benchSession(inp.NewConn(conn), env)
}

// benchSession runs one negotiation session over an established INP
// connection, the way a swarm client amortizes its dial: pipelined like
// TCPNegotiator — one write carries both requests, one fast-path server
// write carries all three replies.
func benchSession(c *inp.Conn, env core.Env) error {
	if err := c.Queue(inp.MsgInitReq, inp.InitReq{AppID: "webapp", Resource: "page-000"}); err != nil {
		return err
	}
	if err := c.Queue(inp.MsgCliMetaRep, inp.CliMetaRep{Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: 75}); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	var initRep inp.InitRep
	if err := c.RecvInto(inp.MsgInitRep, &initRep); err != nil {
		return err
	}
	if !initRep.OK {
		return fmt.Errorf("INIT refused: %s", initRep.Reason)
	}
	var tmpl inp.CliMetaReq
	if err := c.RecvInto(inp.MsgCliMetaReq, &tmpl); err != nil {
		return err
	}
	var padRep inp.PADMetaRep
	return c.RecvInto(inp.MsgPADMetaRep, &padRep)
}

// benchServer starts a throughput-benchmark server and returns its
// address and a shutdown func.
func benchServer(b *testing.B) (addr string, shutdown func()) {
	b.Helper()
	p := newTestProxy(b)
	srv, err := NewServer(p, 64, func(string, ...interface{}) {})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		b.StopTimer()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		if err := <-serveDone; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerThroughput measures steady-state negotiation sessions
// over loopback INP/TCP with parallel clients, each holding a persistent
// connection — the swarm-client shape the serving path is built for. An
// unmeasured first session on each connection warms its buffers; the
// measured loop then exercises the accept-side arena session, batched
// vectored framing, the body codec in both directions, and the
// negotiation plane together.
func BenchmarkServerThroughput(b *testing.B) {
	addr, shutdown := benchServer(b)
	defer shutdown()
	env := desktopEnv()
	if err := benchNegotiation(addr, env); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		c := inp.NewConn(conn)
		if err := benchSession(c, env); err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if err := benchSession(c, env); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServerThroughputColdDial is the old per-session-connection
// shape — dial, negotiate once, close — dominated by connection setup
// and teardown syscalls; kept as the baseline the persistent-connection
// path is measured against.
func BenchmarkServerThroughputColdDial(b *testing.B) {
	addr, shutdown := benchServer(b)
	defer shutdown()
	env := desktopEnv()
	if err := benchNegotiation(addr, env); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := benchNegotiation(addr, env); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
