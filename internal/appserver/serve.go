package appserver

import (
	"errors"
	"fmt"
	"net"
	"time"

	"fractal/internal/core"
	"fractal/internal/inp"
)

// INPServer is the application server's network front end: the shared
// inp.Server serving loop (Serve, Close, SetIdleTimeout, ServeConn) with a
// handler answering each connection's stream of APP_REQ messages with
// APP_REP carrying PAD-encoded content. INPServer is safe for concurrent
// use; the underlying Server provides the locking.
type INPServer struct {
	*inp.Server
	app *Server
}

// NewINPServer wraps an application server.
func NewINPServer(app *Server, maxConcurrent int, logf func(string, ...interface{})) (*INPServer, error) {
	if app == nil {
		return nil, errors.New("appserver: INP server needs an application server")
	}
	s := &INPServer{app: app}
	var err error
	s.Server, err = inp.NewServer("appserver", maxConcurrent, logf, s.handle)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// pushTimeout bounds the AppMeta push: the dial and each read/write of
// the exchange. A dead or stalled proxy costs one timeout, not a hang.
const pushTimeout = 30 * time.Second

// PushAppMetaTCP pushes an application topology to a remote adaptation
// proxy over INP.
func PushAppMetaTCP(proxyAddr string, app core.AppMeta) error {
	conn, err := net.DialTimeout("tcp", proxyAddr, pushTimeout)
	if err != nil {
		return fmt.Errorf("appserver: dialing proxy %s: %w", proxyAddr, err)
	}
	defer conn.Close()
	c := inp.NewConn(conn)
	c.SetTimeout(pushTimeout)
	var ack inp.AppMetaAck
	if err := c.Call(inp.MsgAppMetaPush, inp.AppMetaPush{App: app}, inp.MsgAppMetaAck, &ack); err != nil {
		return fmt.Errorf("appserver: pushing AppMeta: %w", err)
	}
	if !ack.OK {
		return fmt.Errorf("appserver: proxy rejected AppMeta: %s", ack.Reason)
	}
	return nil
}

// handle answers one APP_REQ.
func (s *INPServer) handle(c *inp.Conn, h inp.Header, raw []byte) error {
	var req inp.AppReq
	if err := inp.DecodeAs(h, raw, inp.MsgAppReq, &req); err != nil {
		return fmt.Errorf("reading APP_REQ: %w", err)
	}
	if req.AppID != s.app.AppID() {
		_ = c.SendError(fmt.Sprintf("unknown application %q", req.AppID))
		return nil
	}
	res, err := s.app.Encode(req.ProtocolIDs, req.Resource, req.HaveVersion)
	if err != nil {
		_ = c.SendError(err.Error())
		return nil
	}
	rep := inp.AppRep{
		Resource: req.Resource,
		Version:  res.Version,
		PADID:    res.PADID,
		Payload:  res.Payload,
	}
	if err := c.Send(inp.MsgAppRep, &rep); err != nil {
		return fmt.Errorf("sending APP_REP: %w", err)
	}
	return nil
}
