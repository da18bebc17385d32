package proxy

import (
	"errors"
	"fmt"

	"fractal/internal/core"
	"fractal/internal/inp"
)

// Server is the proxy's INP front end: the shared inp.Server serving loop
// (Serve, Close, SetIdleTimeout, ServeConn) with a handler that runs the
// Figure 4 negotiation exchange (INIT_REQ -> INIT_REP + CLI_META_REQ ->
// CLI_META_REP -> PAD_META_REP) or accepts an application server's
// topology push (APP_META_PUSH) as each session of a connection. A client
// that pipelines CLI_META_REP behind INIT_REQ gets the whole negotiation
// phase answered in a single vectored write (the serving fast path).
// Server is safe for concurrent use: the Proxy it fronts synchronizes
// itself.
type Server struct {
	*inp.Server
	proxy *Proxy
}

// NewServer wraps a proxy. maxConcurrent bounds simultaneously served
// negotiations; logf defaults to log.Printf.
func NewServer(p *Proxy, maxConcurrent int, logf func(string, ...interface{})) (*Server, error) {
	if p == nil {
		return nil, errors.New("proxy: server needs a proxy")
	}
	s := &Server{proxy: p}
	var err error
	s.Server, err = inp.NewServer("proxy", maxConcurrent, logf, s.handle)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// handle serves the session that h opens.
func (s *Server) handle(c *inp.Conn, h inp.Header, raw []byte) error {
	switch h.Type {
	case inp.MsgAppMetaPush:
		var push inp.AppMetaPush
		if err := inp.DecodeRaw(h, raw, &push); err != nil {
			return err
		}
		if err := s.proxy.PushAppMeta(push.App); err != nil {
			_ = c.Send(inp.MsgAppMetaAck, inp.AppMetaAck{OK: false, Reason: err.Error()})
			return err
		}
		return c.Send(inp.MsgAppMetaAck, inp.AppMetaAck{OK: true})
	case inp.MsgInitReq:
		return s.negotiate(c, h, raw)
	default:
		_ = c.SendError(fmt.Sprintf("unexpected %v to open a session", h.Type))
		return fmt.Errorf("unexpected opening message %v", h.Type)
	}
}

// negotiate runs one Figure 4 exchange whose opening INIT_REQ has just
// been read into raw.
func (s *Server) negotiate(c *inp.Conn, h inp.Header, raw []byte) error {
	// Decode before any further Recv: the raw slice is session-scoped and
	// the next frame overwrites it.
	var initReq inp.InitReq
	if err := inp.DecodeRaw(h, raw, &initReq); err != nil {
		return fmt.Errorf("reading INIT_REQ: %w", err)
	}
	// A pipelined client has already flushed CLI_META_REP behind INIT_REQ;
	// drain it before any refusal so an error reply is not lost to a
	// connection reset over unread input, and before the fast-path reply
	// burst below.
	fast := c.InputPending()
	var meta inp.CliMetaRep
	if fast {
		if err := c.RecvInto(inp.MsgCliMetaRep, &meta); err != nil {
			return fmt.Errorf("reading pipelined CLI_META_REP: %w", err)
		}
	}
	if initReq.AppID == "" {
		_ = c.SendError("INIT_REQ missing application id")
		return errors.New("INIT_REQ missing application id")
	}
	if err := c.Queue(inp.MsgInitRep, inp.InitRep{OK: true}); err != nil {
		return fmt.Errorf("sending INIT_REP: %w", err)
	}
	// Empty templates for the client to fill by probing its system.
	if err := c.Queue(inp.MsgCliMetaReq, inp.CliMetaReq{}); err != nil {
		return fmt.Errorf("sending CLI_META_REQ: %w", err)
	}
	if !fast {
		// Classic exchange: flush the two requests, wait for the client's
		// metadata before the negotiation answer.
		if err := c.Flush(); err != nil {
			return fmt.Errorf("sending INIT_REP: %w", err)
		}
		if err := c.RecvInto(inp.MsgCliMetaRep, &meta); err != nil {
			return fmt.Errorf("reading CLI_META_REP: %w", err)
		}
	}

	env := core.Env{Dev: meta.Dev, Ntwk: meta.Ntwk}
	pads, err := s.proxy.NegotiateFor(initReq.ClientID, initReq.AppID, env, meta.SessionRequests)
	if err != nil {
		// SendError flushes any queued fast-path replies ahead of the
		// error frame, keeping the stream sequential for the client.
		_ = c.SendError(err.Error())
		return err
	}
	if err := c.Queue(inp.MsgPADMetaRep, inp.PADMetaRep{PADs: pads}); err != nil {
		return fmt.Errorf("sending PAD_META_REP: %w", err)
	}
	// On the fast path this single flush answers INIT_REP, CLI_META_REQ,
	// and PAD_META_REP in one vectored write.
	if err := c.Flush(); err != nil {
		return fmt.Errorf("sending PAD_META_REP: %w", err)
	}
	return nil
}
