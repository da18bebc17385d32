package cdn

import (
	"errors"
	"fmt"

	"fractal/internal/inp"
)

// PADServer is a network front end serving PAD_DOWNLOAD_REQ over INP from
// an object store: the shared inp.Server serving loop (Serve, Close,
// SetIdleTimeout, ServeConn) with a download handler. One instance over
// the origin is the paper's "centralized PAD server"; one per edge store
// is an edgeserver daemon. PADServer is safe for concurrent use: the
// backing store synchronizes itself.
type PADServer struct {
	*inp.Server
	store *Origin
}

// NewPADServer wraps an object store.
func NewPADServer(store *Origin, maxConcurrent int, logf func(string, ...interface{})) (*PADServer, error) {
	if store == nil {
		return nil, errors.New("cdn: PAD server needs a store")
	}
	s := &PADServer{store: store}
	var err error
	s.Server, err = inp.NewServer("cdn", maxConcurrent, logf, s.handle)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// handle answers one PAD_DOWNLOAD_REQ. The reply ships the module bytes
// raw in a zero-copy writev vector.
func (s *PADServer) handle(c *inp.Conn, h inp.Header, raw []byte) error {
	var req inp.PADDownloadReq
	if err := inp.DecodeAs(h, raw, inp.MsgPADDownloadReq, &req); err != nil {
		return fmt.Errorf("reading PAD_DOWNLOAD_REQ: %w", err)
	}
	path := req.URL
	if path == "" {
		path = "/pads/" + req.PADID
	}
	data, err := s.store.Get(path)
	if err != nil {
		_ = c.SendError(err.Error())
		return nil
	}
	if err := c.Send(inp.MsgPADDownloadRep, &inp.PADDownloadRep{PADID: req.PADID, Module: data}); err != nil {
		return fmt.Errorf("sending PAD_DOWNLOAD_REP: %w", err)
	}
	return nil
}
