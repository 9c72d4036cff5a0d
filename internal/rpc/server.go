package rpc

import (
	"crypto/ed25519"
	"errors"
	"io"
	"net"
	"sync"

	"flashflow/internal/metrics"
	"flashflow/internal/wire"
)

// Handler serves one authenticated request. peer is the connection's
// authenticated client key (valid only for the duration of the call),
// method is the request's method byte, and body is the request payload
// (owned by the handler for the duration of the call only). A returned
// error becomes a FrameError on the wire — the connection survives it —
// so handlers express rejections (a stale submission, a bad signature)
// as ordinary errors without tearing down the peer's link.
type Handler func(peer ed25519.PublicKey, method uint8, body []byte) ([]byte, error)

// ServerConfig configures a Server.
type ServerConfig struct {
	// Authorized is the set of client public keys allowed to connect —
	// for the dirauth merge node, the registered BWAuths' keys.
	Authorized []ed25519.PublicKey
	// Handler serves authenticated requests. Required.
	Handler Handler
	// Counters receives the server's operational counters; nil creates a
	// private registry (the counters still work, just unexported).
	Counters *metrics.Counters
	// CounterPrefix namespaces the counters (default "rpc_server"). The
	// dirauth merge node sets "dirauth_rpc" so its metrics sit beside the
	// dirauth_submission_* family on /metrics.
	CounterPrefix string
}

// Server accepts authenticated RPC connections and dispatches their
// requests to the configured handler. One goroutine per connection;
// requests on a connection are served in order.
type Server struct {
	cfg     ServerConfig
	allowed map[string]bool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[io.Closer]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server. The counter set is pre-registered at zero so
// a scrape of a fresh merge node exposes the full stable metric family.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Handler == nil {
		return nil, errors.New("rpc: server needs a handler")
	}
	if cfg.Counters == nil {
		cfg.Counters = metrics.NewCounters()
	}
	if cfg.CounterPrefix == "" {
		cfg.CounterPrefix = "rpc_server"
	}
	s := &Server{
		cfg:     cfg,
		allowed: make(map[string]bool, len(cfg.Authorized)),
		conns:   make(map[io.Closer]struct{}),
	}
	for _, pub := range cfg.Authorized {
		s.allowed[string(pub)] = true
	}
	for _, name := range []string{
		"_conns_accepted", "_conns_active", "_hello_rejects",
		"_auth_failures", "_requests", "_handler_errors", "_frame_errors",
	} {
		cfg.Counters.Add(cfg.CounterPrefix+name, 0)
	}
	return s, nil
}

func (s *Server) count(name string, delta int64) {
	s.cfg.Counters.Add(s.cfg.CounterPrefix+name, delta)
}

// Start listens on addr and serves in a background goroutine until Close.
// It returns the bound address (useful with ":0" ports).
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections from ln until Close or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	return s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.ServeConn(conn)
		}()
	}
}

// ServeConn runs the handshake and request loop on one connection —
// any io.ReadWriteCloser, so the protocol tests drive it over net.Pipe.
// It returns when the peer disconnects, a protocol error occurs, or the
// server closes. The connection is always closed on return.
func (s *Server) ServeConn(conn io.ReadWriteCloser) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.count("_conns_accepted", 1)
	s.count("_conns_active", 1)
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.count("_conns_active", -1)
	}()

	peer, err := wire.ServerHandshake(conn, &plane, s.allowed)
	if err != nil {
		switch {
		case errors.Is(err, wire.ErrBadHello), errors.Is(err, wire.ErrVersionSkew):
			s.count("_hello_rejects", 1)
		case errors.Is(err, wire.ErrBadFrame), errors.Is(err, wire.ErrAuthRejected):
			s.count("_auth_failures", 1)
		}
		return err
	}
	for {
		// No scratch: each request body is allocated once and handed
		// to the handler, which may keep it (a submission's body).
		t, payload, err := wire.ReadFrame(conn, plane.MaxPayload, nil)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			s.count("_frame_errors", 1)
			return err
		}
		if t != FrameRequest || len(payload) < 1 {
			s.count("_frame_errors", 1)
			return wire.ErrBadFrame
		}
		s.count("_requests", 1)
		resp, herr := s.cfg.Handler(peer, payload[0], payload[1:])
		if herr != nil {
			s.count("_handler_errors", 1)
			if err := wire.WriteFrame(conn, plane.MaxPayload, FrameError, []byte(herr.Error())); err != nil {
				return err
			}
			continue
		}
		if err := wire.WriteFrame(conn, plane.MaxPayload, FrameResponse, resp); err != nil {
			return err
		}
	}
}

// Close stops the listener (if any), closes every live connection, and
// waits for their goroutines to drain. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}
