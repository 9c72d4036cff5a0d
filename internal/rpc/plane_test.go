package rpc

import (
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"flashflow/internal/metrics"
	"flashflow/internal/wire"
)

// The control plane and the measurement plane run one handshake under
// different magics and signature domains. These tests pin the separation
// from both sides with the packages' public entry points: wire.Measure
// and wire.Target for the measurement plane, Client and Server here.

// TestMeasurerRefusedByRPCServer: a measurer that dials the merge node's
// RPC port is refused at its hello.
func TestMeasurerRefusedByRPCServer(t *testing.T) {
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
	served := make(chan error, 1)
	dial := func() (net.Conn, error) {
		client, server := net.Pipe()
		go func() { served <- srv.ServeConn(server) }()
		return client, nil
	}
	_, err = wire.Measure(context.Background(), dial, wire.MeasureOptions{
		Identity: id, Sockets: 1, RateBps: 1e6, Duration: time.Second,
	})
	if !errors.Is(err, wire.ErrBadHello) {
		t.Fatalf("measurer against the RPC server: %v, want ErrBadHello", err)
	}
	if err := <-served; !errors.Is(err, wire.ErrBadHello) {
		t.Fatalf("RPC server: %v, want ErrBadHello", err)
	}
	if got := ctr.Get("rpc_server_hello_rejects"); got != 1 {
		t.Fatalf("hello_rejects = %d, want 1", got)
	}
}

// TestClientRefusedByTarget: an RPC client that dials a measurement
// target is refused at its hello.
func TestClientRefusedByTarget(t *testing.T) {
	id := newTestIdentity(t)
	tgt := wire.NewTarget(wire.TargetConfig{})
	tgt.Authorize(id.Pub)
	defer tgt.Close()
	cli, err := NewClient(ClientConfig{
		Dial: func(context.Context) (io.ReadWriteCloser, error) {
			client, server := net.Pipe()
			go func() { _ = tgt.HandleConn(server) }()
			return client, nil
		},
		Identity: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(context.Background(), MethodSubmitV3BW, nil); !errors.Is(err, wire.ErrBadHello) {
		t.Fatalf("RPC client against a target: %v, want ErrBadHello", err)
	}
}

// TestRelayedMeasurementSignatureRejected plays a relay that wants a
// control-plane session under a measurer's key, the key it is handed as
// an authorized measurer. It opens an RPC handshake, replays the merge
// node's nonce and version to the measurer as its own welcome, and
// forwards the measurer's signature. The signature covers the
// measurement plane's domain, so the RPC server rejects it.
func TestRelayedMeasurementSignatureRejected(t *testing.T) {
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
	max := plane.MaxPayload
	read := func(conn net.Conn, want wire.FrameType) []byte {
		t.Helper()
		ft, p, err := wire.ReadFrame(conn, max, nil)
		if err != nil || ft != want {
			t.Fatalf("read frame: type %d, %v; want type %d", ft, err, want)
		}
		return p
	}
	write := func(conn net.Conn, ft wire.FrameType, p []byte) {
		t.Helper()
		if err := wire.WriteFrame(conn, max, ft, p); err != nil {
			t.Fatal(err)
		}
	}

	// The relay's session with the merge node.
	toServer, server := net.Pipe()
	defer toServer.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(server) }()
	hello := []byte(plane.Magic)
	hello = binary.BigEndian.AppendUint16(hello, plane.VersionMin)
	hello = binary.BigEndian.AppendUint16(hello, plane.VersionMax)
	write(toServer, wire.FrameHello, hello)
	welcome := read(toServer, wire.FrameWelcome)

	// The measurer, measuring the relay.
	toMeasurer, measurer := net.Pipe()
	defer toMeasurer.Close()
	measured := make(chan error, 1)
	go func() {
		_, err := wire.Measure(context.Background(), func() (net.Conn, error) { return measurer, nil },
			wire.MeasureOptions{Identity: id, Sockets: 1, RateBps: 1e6, Duration: time.Second})
		measured <- err
	}()
	read(toMeasurer, wire.FrameHello)
	write(toMeasurer, wire.FrameWelcome, welcome)
	auth := read(toMeasurer, wire.FrameAuth)

	write(toServer, wire.FrameAuth, auth)
	read(toServer, wire.FrameReject)
	if err := <-srvErr; !errors.Is(err, wire.ErrAuthRejected) || errors.Is(err, wire.ErrNotAuthorized) {
		t.Fatalf("server accepted or misjudged the relayed signature: %v", err)
	}
	if got := ctr.Get("rpc_server_auth_failures"); got != 1 {
		t.Fatalf("auth_failures = %d, want 1", got)
	}
	toMeasurer.Close()
	<-measured
}
