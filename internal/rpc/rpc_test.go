package rpc

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"flashflow/internal/metrics"
	"flashflow/internal/wire"
)

// pipeDialer returns a Dial func whose every call hands the server a
// fresh net.Pipe end via srv.ServeConn — the interface/transport
// separation that keeps every protocol path sockets-free in tests.
func pipeDialer(t *testing.T, srv *Server) func(context.Context) (io.ReadWriteCloser, error) {
	t.Helper()
	return func(ctx context.Context) (io.ReadWriteCloser, error) {
		client, server := net.Pipe()
		go func() { _ = srv.ServeConn(server) }()
		return client, nil
	}
}

func newTestIdentity(t *testing.T) wire.Identity {
	t.Helper()
	id, err := wire.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// echoServer builds a server whose handler echoes method+body back.
func echoServer(t *testing.T, authorized ...ed25519.PublicKey) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Authorized: authorized,
		Handler: func(peer ed25519.PublicKey, method uint8, body []byte) ([]byte, error) {
			out := append([]byte{method}, body...)
			return out, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestHandshakeAndCall(t *testing.T) {
	id := newTestIdentity(t)
	srv := echoServer(t, id.Pub)
	defer srv.Close()
	ctr := metrics.NewCounters()
	cli, err := NewClient(ClientConfig{Dial: pipeDialer(t, srv), Identity: id, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resp, err := cli.Call(context.Background(), 7, []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if want := append([]byte{7}, []byte("hello")...); !bytes.Equal(resp, want) {
		t.Fatalf("echo = %q, want %q", resp, want)
	}
	// Second call reuses the connection: no second dial.
	if _, err := cli.Call(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Get("coord_rpc_dials"); got != 1 {
		t.Fatalf("dials = %d, want 1 (connection should be reused)", got)
	}
	if got := ctr.Get("coord_rpc_calls"); got != 2 {
		t.Fatalf("calls = %d, want 2", got)
	}
}

func TestLargeBody(t *testing.T) {
	id := newTestIdentity(t)
	srv := echoServer(t, id.Pub)
	defer srv.Close()
	cli, err := NewClient(ClientConfig{Dial: pipeDialer(t, srv), Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	body := make([]byte, 1<<20)
	for i := range body {
		body[i] = byte(i * 31)
	}
	resp, err := cli.Call(context.Background(), 9, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(body)+1 || !bytes.Equal(resp[1:], body) {
		t.Fatal("large body did not round-trip")
	}
}

func TestUnauthorizedKeyRejected(t *testing.T) {
	authorized := newTestIdentity(t)
	stranger := newTestIdentity(t)
	srv := echoServer(t, authorized.Pub)
	defer srv.Close()
	ctr := metrics.NewCounters()
	cli, err := NewClient(ClientConfig{Dial: pipeDialer(t, srv), Identity: stranger, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.Call(context.Background(), 1, nil)
	if !errors.Is(err, wire.ErrAuthRejected) {
		t.Fatalf("stranger call error = %v, want ErrAuthRejected", err)
	}
	if got := ctr.Get("coord_rpc_call_errors"); got != 1 {
		t.Fatalf("call_errors = %d, want 1", got)
	}
}

// TestVersionSkewRejected: a client speaking only newer versions than the
// server is refused at its hello with ErrVersionSkew, which the server
// counts as a hello reject.
func TestVersionSkewRejected(t *testing.T) {
	id := newTestIdentity(t)
	ctr := metrics.NewCounters()
	srv, err := NewServer(ServerConfig{
		Authorized: []ed25519.PublicKey{id.Pub},
		Handler:    func(ed25519.PublicKey, uint8, []byte) ([]byte, error) { return nil, nil },
		Counters:   ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(server) }()

	future := plane
	future.VersionMin, future.VersionMax = plane.VersionMax+1, plane.VersionMax+5
	if err := wire.ClientHandshake(client, &future, id); !errors.Is(err, wire.ErrVersionSkew) {
		t.Fatalf("skewed client error = %v, want ErrVersionSkew", err)
	}
	if err := <-srvErr; !errors.Is(err, wire.ErrVersionSkew) {
		t.Fatalf("server error = %v, want ErrVersionSkew", err)
	}
	if got := ctr.Get("rpc_server_hello_rejects"); got != 1 {
		t.Fatalf("hello_rejects = %d, want 1", got)
	}
}

// TestDowngradeSignatureBinding proves the negotiated version is bound
// into the auth signature: between a client and a server that both speak
// versions 1 and 2, a middle party rewrites the welcome from version 2 to
// 1. The client signs over version 1, the server verifies over version 2,
// and the handshake fails even though the key is authorized. The same
// relay without the rewrite authenticates.
func TestDowngradeSignatureBinding(t *testing.T) {
	id := newTestIdentity(t)
	twoVersions := plane
	twoVersions.VersionMin, twoVersions.VersionMax = 1, 2
	for _, splice := range []bool{false, true} {
		cliConn, relayCli := net.Pipe()
		relaySrv, srvConn := net.Pipe()
		// Client to server: bytes pass untouched.
		go func() { _, _ = io.Copy(relaySrv, relayCli) }()
		// Server to client: frame by frame, rewriting the welcome's version.
		go func() {
			defer relayCli.Close()
			for {
				ft, p, err := wire.ReadFrame(relaySrv, plane.MaxPayload, nil)
				if err != nil {
					return
				}
				if splice && ft == wire.FrameWelcome {
					p[0], p[1] = 0, 1
				}
				if wire.WriteFrame(relayCli, plane.MaxPayload, ft, p) != nil {
					return
				}
			}
		}()
		srvErr := make(chan error, 1)
		go func() {
			defer srvConn.Close()
			_, err := wire.ServerHandshake(srvConn, &twoVersions, map[string]bool{string(id.Pub): true})
			srvErr <- err
		}()
		cliErr := wire.ClientHandshake(cliConn, &twoVersions, id)
		cliConn.Close()
		err := <-srvErr
		relaySrv.Close()
		if !splice {
			if cliErr != nil || err != nil {
				t.Fatalf("honest relay: client %v, server %v", cliErr, err)
			}
			continue
		}
		if !errors.Is(err, wire.ErrAuthRejected) || !errors.Is(cliErr, wire.ErrAuthRejected) {
			t.Fatalf("downgraded welcome: client %v, server %v; want ErrAuthRejected", cliErr, err)
		}
	}
}

func TestServerErrorKeepsConnection(t *testing.T) {
	id := newTestIdentity(t)
	srv, err := NewServer(ServerConfig{
		Authorized: []ed25519.PublicKey{id.Pub},
		Handler: func(peer ed25519.PublicKey, method uint8, body []byte) ([]byte, error) {
			if method == 0xFF {
				return nil, errors.New("rejected by handler")
			}
			return []byte("ok"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctr := metrics.NewCounters()
	cli, err := NewClient(ClientConfig{Dial: pipeDialer(t, srv), Identity: id, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.Call(context.Background(), 0xFF, nil)
	var se *ServerError
	if !errors.As(err, &se) || se.Msg != "rejected by handler" {
		t.Fatalf("handler rejection = %v, want *ServerError(rejected by handler)", err)
	}
	// The connection survived the handler error: the next call succeeds
	// without a redial.
	if _, err := cli.Call(context.Background(), 1, nil); err != nil {
		t.Fatalf("call after handler error: %v", err)
	}
	if got := ctr.Get("coord_rpc_dials"); got != 1 {
		t.Fatalf("dials = %d, want 1 (handler errors must not drop the conn)", got)
	}
}

// TestRedialAfterConnDrop: a call on a pooled connection that died since
// the last use redials exactly once and succeeds.
func TestRedialAfterConnDrop(t *testing.T) {
	id := newTestIdentity(t)
	srv := echoServer(t, id.Pub)
	defer srv.Close()

	var mu sync.Mutex
	var serverEnds []io.Closer
	dial := func(ctx context.Context) (io.ReadWriteCloser, error) {
		client, server := net.Pipe()
		mu.Lock()
		serverEnds = append(serverEnds, server)
		mu.Unlock()
		go func() { _ = srv.ServeConn(server) }()
		return client, nil
	}
	ctr := metrics.NewCounters()
	cli, err := NewClient(ClientConfig{Dial: dial, Identity: id, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Call(context.Background(), 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Kill the server side of the live connection behind the client's back.
	mu.Lock()
	serverEnds[0].Close()
	mu.Unlock()

	if _, err := cli.Call(context.Background(), 2, []byte("b")); err != nil {
		t.Fatalf("call after conn drop: %v (want transparent redial)", err)
	}
	if got := ctr.Get("coord_rpc_retries"); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := ctr.Get("coord_rpc_dials"); got != 2 {
		t.Fatalf("dials = %d, want 2", got)
	}
}

// TestRealTCP runs the same handshake over a real localhost listener —
// the production transport — including the context deadline mapping.
func TestRealTCP(t *testing.T) {
	id := newTestIdentity(t)
	srv := echoServer(t, id.Pub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := NewClient(ClientConfig{
		Dial: func(ctx context.Context) (io.ReadWriteCloser, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr.String())
		},
		Identity: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, 3, []byte("tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{3}, []byte("tcp")...); !bytes.Equal(resp, want) {
		t.Fatalf("echo over TCP = %q, want %q", resp, want)
	}
}

func TestDeriveIdentityDeterministic(t *testing.T) {
	a := DeriveIdentity("secret", "bw0")
	b := DeriveIdentity("secret", "bw0")
	if !bytes.Equal(a.Pub, b.Pub) {
		t.Fatal("same secret+name must derive the same key")
	}
	c := DeriveIdentity("secret", "bw1")
	if bytes.Equal(a.Pub, c.Pub) {
		t.Fatal("different names must derive different keys")
	}
	d := DeriveIdentity("other", "bw0")
	if bytes.Equal(a.Pub, d.Pub) {
		t.Fatal("different secrets must derive different keys")
	}
	msg := []byte("sign me")
	if !ed25519.Verify(a.Pub, msg, ed25519.Sign(a.Priv, msg)) {
		t.Fatal("derived keypair must be a working ed25519 pair")
	}
}

func TestClosedClientAndServer(t *testing.T) {
	id := newTestIdentity(t)
	srv := echoServer(t, id.Pub)
	cli, err := NewClient(ClientConfig{Dial: pipeDialer(t, srv), Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if _, err := cli.Call(context.Background(), 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on closed client = %v, want ErrClosed", err)
	}
	srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	if err := srv.ServeConn(server); !errors.Is(err, ErrClosed) {
		t.Fatalf("ServeConn on closed server = %v, want ErrClosed", err)
	}
}
