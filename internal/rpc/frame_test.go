package rpc

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"flashflow/internal/metrics"
	"flashflow/internal/wire"
)

// The codec itself is tested once, at both planes' bounds, in
// internal/wire; these tests cover how the control plane's server and
// client use it.

// recordingServer builds a server that authorizes id, keeps every request
// body its handler is handed (as the merge node keeps a submission's) and
// answers with the body.
func recordingServer(t testing.TB, id wire.Identity, ctr *metrics.Counters) (*Server, func() [][]byte) {
	t.Helper()
	var mu sync.Mutex
	var kept [][]byte
	srv, err := NewServer(ServerConfig{
		Authorized: []ed25519.PublicKey{id.Pub},
		Counters:   ctr,
		Handler: func(_ ed25519.PublicKey, method uint8, body []byte) ([]byte, error) {
			mu.Lock()
			kept = append(kept, body)
			mu.Unlock()
			return body, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return kept
	}
}

// authedPipe hands srv one end of a net.Pipe and authenticates the other
// as id. It returns that end and a channel that receives ServeConn's
// result.
func authedPipe(t testing.TB, srv *Server, id wire.Identity) (net.Conn, <-chan error) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(server) }()
	if err := wire.ClientHandshake(client, &plane, id); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return client, done
}

// feed writes data to an authenticated conn, reads the server's responses
// to its first n requests, and closes conn once the server has taken
// every byte it will read.
func feed(t testing.TB, conn net.Conn, data []byte, n int) {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		if len(data) > 0 {
			_, _ = conn.Write(data) // fails once the server has refused the stream
		}
	}()
	for i := 0; i < n; i++ {
		if _, _, err := wire.ReadFrame(conn, plane.MaxPayload, nil); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	<-wrote
	conn.Close()
}

// requestFrame encodes one request frame: the method byte, then body.
func requestFrame(t testing.TB, method uint8, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, plane.MaxPayload, FrameRequest, append([]byte{method}, body...)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameHeader is a bare frame header declaring n payload bytes.
func frameHeader(n uint32, ft wire.FrameType) []byte {
	return append(binary.BigEndian.AppendUint32(nil, n), byte(ft))
}

// TestFrameTooLarge: the server refuses a length prefix over its bound
// before allocating for it. Until the client authenticates, the bound is
// the handshake's, so a hello declaring the plane's whole 64 MiB payload
// is refused at its header; after it, a request declaring one byte more
// than the plane's bound is refused and counted as a frame error.
func TestFrameTooLarge(t *testing.T) {
	id := newTestIdentity(t)
	allocated := func(f func() error) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	const little = 1 << 20

	t.Run("hello", func(t *testing.T) {
		srv, _ := recordingServer(t, id, nil)
		defer srv.Close()
		conn := scriptConn{bytes.NewReader(frameHeader(uint32(plane.MaxPayload), wire.FrameHello))}
		n, err := allocated(func() error { return srv.ServeConn(conn) })
		if !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Fatalf("ServeConn = %v, want ErrFrameTooLarge", err)
		}
		if n >= little {
			t.Fatalf("allocated %d bytes refusing a %d-byte hello", n, plane.MaxPayload)
		}
	})

	t.Run("request", func(t *testing.T) {
		ctr := metrics.NewCounters()
		srv, kept := recordingServer(t, id, ctr)
		defer srv.Close()
		conn, done := authedPipe(t, srv, id)
		defer conn.Close()
		n, err := allocated(func() error {
			if _, err := conn.Write(frameHeader(uint32(plane.MaxPayload)+1, FrameRequest)); err != nil {
				return err
			}
			return <-done
		})
		if !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Fatalf("ServeConn = %v, want ErrFrameTooLarge", err)
		}
		if n >= little {
			t.Fatalf("allocated %d bytes refusing an oversized request", n)
		}
		if got := ctr.Get("rpc_server_frame_errors"); got != 1 || len(kept()) != 0 {
			t.Fatalf("frame_errors = %d, handler calls = %d; want 1 and 0", got, len(kept()))
		}
	})
}

// scriptConn serves ServeConn a fixed byte string and discards its
// writes.
type scriptConn struct{ r *bytes.Reader }

func (c scriptConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (c scriptConn) Close() error                { return nil }

// TestFrameRoundTrip carries edge bodies through Call: the handler is
// handed each request body exactly, the caller gets each response body
// exactly, and a body the handler keeps is its own — a later, larger
// request on the same connection never overwrites it.
func TestFrameRoundTrip(t *testing.T) {
	id := newTestIdentity(t)
	srv, kept := recordingServer(t, id, nil)
	defer srv.Close()
	ctr := metrics.NewCounters()
	cli, err := NewClient(ClientConfig{Dial: pipeDialer(t, srv), Identity: id, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	cases := [][]byte{nil, {0}, []byte("payload"), bytes.Repeat([]byte{7}, 65536)}
	for i, body := range cases {
		resp, err := cli.Call(context.Background(), uint8(i), body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, body) {
			t.Fatalf("call %d: response of %d bytes, want %d", i, len(resp), len(body))
		}
	}
	got := kept()
	if len(got) != len(cases) {
		t.Fatalf("handler saw %d requests, want %d", len(got), len(cases))
	}
	for i, body := range cases {
		if !bytes.Equal(got[i], body) {
			t.Fatalf("kept body %d changed after later requests", i)
		}
	}
	if dials := ctr.Get("coord_rpc_dials"); dials != 1 {
		t.Fatalf("dials = %d, want 1", dials)
	}
}

// TestTornFrame applies the torn-tail rule to the server's request loop:
// a stream of two requests cut at every byte offset reaches the handler
// with each complete request and nothing else. A cut on a request
// boundary ends the connection cleanly; any other cut is one frame error,
// and ServeConn returns io.ErrUnexpectedEOF.
func TestTornFrame(t *testing.T) {
	id := newTestIdentity(t)
	first := requestFrame(t, 1, []byte("first"))
	stream := append(bytes.Clone(first), requestFrame(t, 2, bytes.Repeat([]byte{0xEE}, 300))...)

	for cut := 0; cut <= len(stream); cut++ {
		ctr := metrics.NewCounters()
		srv, kept := recordingServer(t, id, ctr)
		wantCalls := 0
		if cut >= len(first) {
			wantCalls = 1
		}
		if cut == len(stream) {
			wantCalls = 2
		}
		conn, done := authedPipe(t, srv, id)
		feed(t, conn, stream[:cut], wantCalls)
		err := <-done
		srv.Close()

		if got := kept(); len(got) != wantCalls {
			t.Fatalf("cut=%d: handler called %d times, want %d", cut, len(got), wantCalls)
		}
		frameErrors := ctr.Get("rpc_server_frame_errors")
		if atBoundary := cut == 0 || cut == len(first) || cut == len(stream); atBoundary {
			if err != nil || frameErrors != 0 {
				t.Fatalf("cut=%d (boundary): ServeConn = %v, frame_errors = %d; want nil and 0", cut, err, frameErrors)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) || frameErrors != 1 {
			t.Fatalf("cut=%d (torn): ServeConn = %v, frame_errors = %d; want io.ErrUnexpectedEOF and 1", cut, err, frameErrors)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to an authenticated connection's
// request loop. The server must never panic and must return once the
// stream ends; its handler must be handed exactly the stream's leading
// well-formed requests, in order; and it must count one frame error
// unless the stream ended cleanly on a request boundary.
func FuzzReadFrame(f *testing.F) {
	id := DeriveIdentity("fuzz", "client")
	f.Add(requestFrame(f, 1, []byte("seed")))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 2, 6, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]byte
		clean := false
		r := bytes.NewReader(data)
		for {
			ft, p, err := wire.ReadFrame(r, plane.MaxPayload, nil)
			clean = err == io.EOF
			if err != nil || ft != FrameRequest || len(p) == 0 {
				break
			}
			want = append(want, p)
		}

		ctr := metrics.NewCounters()
		srv, kept := recordingServer(t, id, ctr)
		defer srv.Close()
		conn, done := authedPipe(t, srv, id)
		feed(t, conn, data, len(want))
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeConn did not return at end of stream")
		}

		got := kept()
		if len(got) != len(want) {
			t.Fatalf("handler called %d times, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i][1:]) {
				t.Fatalf("request %d: handler body differs from the frame's", i)
			}
		}
		wantErrors := int64(1)
		if clean {
			wantErrors = 0
		}
		if n := ctr.Get("rpc_server_frame_errors"); n != wantErrors {
			t.Fatalf("frame_errors = %d, want %d", n, wantErrors)
		}
	})
}
