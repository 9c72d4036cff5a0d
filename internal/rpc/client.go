package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"flashflow/internal/metrics"
	"flashflow/internal/wire"
)

// ClientConfig configures a Client.
type ClientConfig struct {
	// Dial opens a transport to the server. Required. The returned
	// connection may be any io.ReadWriteCloser — net.Conn in production,
	// one end of a net.Pipe in tests. Connections that also implement
	// SetDeadline get per-call deadlines derived from the call context.
	Dial func(ctx context.Context) (io.ReadWriteCloser, error)
	// Identity is the client's ed25519 keypair, reused from the
	// measurement plane's identity type. Required.
	Identity wire.Identity
	// Counters receives the client's operational counters; nil creates a
	// private registry.
	Counters *metrics.Counters
	// CounterPrefix namespaces the counters (default "coord_rpc": the
	// client side of the control plane belongs to the coordinator
	// metric family).
	CounterPrefix string
}

// Client is a connection-caching RPC client: one authenticated connection,
// established lazily, reused across Calls, and re-established transparently
// when a pooled connection turns out to be dead (one redial per call — a
// server restart between rounds costs one retry, not a lost submission).
// Safe for concurrent use; calls are serialized on the single connection.
type Client struct {
	cfg ClientConfig

	mu     sync.Mutex
	conn   io.ReadWriteCloser
	closed bool
}

// deadliner is the optional transport capability used to map call-context
// deadlines onto the connection (net.Conn and net.Pipe both have it).
type deadliner interface{ SetDeadline(t time.Time) error }

// NewClient builds a client. No connection is opened until the first Call.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Dial == nil {
		return nil, errors.New("rpc: client needs a dial function")
	}
	if len(cfg.Identity.Priv) == 0 {
		return nil, errors.New("rpc: client needs an identity")
	}
	if cfg.Counters == nil {
		cfg.Counters = metrics.NewCounters()
	}
	if cfg.CounterPrefix == "" {
		cfg.CounterPrefix = "coord_rpc"
	}
	for _, name := range []string{
		"_dials", "_dial_errors", "_calls", "_call_errors",
		"_server_errors", "_retries",
	} {
		cfg.Counters.Add(cfg.CounterPrefix+name, 0)
	}
	return &Client{cfg: cfg}, nil
}

func (c *Client) count(name string, delta int64) {
	c.cfg.Counters.Add(c.cfg.CounterPrefix+name, delta)
}

// Call sends one request and waits for its response. A *ServerError
// return means the server's handler rejected the request — the
// connection is fine and is kept. A transport failure on a reused
// connection triggers exactly one redial-and-retry (the pooled connection
// may have died since the last call); a failure on a fresh connection is
// returned as-is.
func (c *Client) Call(ctx context.Context, method uint8, body []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.count("_calls", 1)
	for attempt := 0; ; attempt++ {
		reused := c.conn != nil
		if !reused {
			if err := c.connectLocked(ctx); err != nil {
				c.count("_call_errors", 1)
				return nil, err
			}
		}
		resp, err := c.roundTripLocked(ctx, method, body)
		if err == nil {
			return resp, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			c.count("_server_errors", 1)
			return nil, err
		}
		c.dropLocked()
		if reused && attempt == 0 && ctx.Err() == nil {
			c.count("_retries", 1)
			continue
		}
		c.count("_call_errors", 1)
		return nil, err
	}
}

// connectLocked dials and runs the handshake. Called with c.mu held.
func (c *Client) connectLocked(ctx context.Context) error {
	c.count("_dials", 1)
	conn, err := c.cfg.Dial(ctx)
	if err != nil {
		c.count("_dial_errors", 1)
		return fmt.Errorf("rpc: dial: %w", err)
	}
	c.applyDeadline(conn, ctx)
	if err := wire.ClientHandshake(conn, &plane, c.cfg.Identity); err != nil {
		conn.Close()
		c.count("_dial_errors", 1)
		return err
	}
	c.conn = conn
	return nil
}

// applyDeadline maps the call context's deadline (if any) onto the
// transport (if it supports deadlines).
func (c *Client) applyDeadline(conn io.ReadWriteCloser, ctx context.Context) {
	d, ok := conn.(deadliner)
	if !ok {
		return
	}
	if t, ok := ctx.Deadline(); ok {
		_ = d.SetDeadline(t)
	} else {
		_ = d.SetDeadline(time.Time{})
	}
}

// roundTripLocked sends one request frame and reads its reply. Called
// with c.mu held and a live connection.
func (c *Client) roundTripLocked(ctx context.Context, method uint8, body []byte) ([]byte, error) {
	c.applyDeadline(c.conn, ctx)
	req := make([]byte, 1+len(body))
	req[0] = method
	copy(req[1:], body)
	if err := wire.WriteFrame(c.conn, plane.MaxPayload, FrameRequest, req); err != nil {
		return nil, err
	}
	t, p, err := wire.ReadFrame(c.conn, plane.MaxPayload, nil)
	if err != nil {
		return nil, err
	}
	switch t {
	case FrameResponse:
		return p, nil
	case FrameError:
		return nil, &ServerError{Msg: string(p)}
	default:
		return nil, wire.ErrBadFrame
	}
}

// dropLocked discards the cached connection.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close discards the cached connection and marks the client closed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.dropLocked()
	return nil
}
