package wire

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// handshake runs ClientHandshake on client against ServerHandshake on
// server over a net.Pipe and returns the key the server authenticated and
// both sides' errors.
func handshake(client, server *Plane, id Identity, allowed ...Identity) (ed25519.PublicKey, error, error) {
	c, s := net.Pipe()
	set := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		set[string(a.Pub)] = true
	}
	type result struct {
		pub ed25519.PublicKey
		err error
	}
	done := make(chan result, 1)
	go func() {
		defer s.Close()
		pub, err := ServerHandshake(s, server, set)
		done <- result{pub, err}
	}()
	cliErr := ClientHandshake(c, client, id)
	c.Close()
	r := <-done
	return r.pub, cliErr, r.err
}

func TestAuthHandshakeOverPipe(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	pub, cliErr, srvErr := handshake(&msmtPlane, &msmtPlane, id, id)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("client %v, server %v", cliErr, srvErr)
	}
	if !bytes.Equal(pub, id.Pub) {
		t.Fatal("server authenticated another key")
	}
}

func TestAuthRejectsUnknownKey(t *testing.T) {
	good, _ := NewIdentity()
	evil, _ := NewIdentity()
	_, cliErr, srvErr := handshake(&msmtPlane, &msmtPlane, evil, good)
	if !errors.Is(cliErr, ErrNotAuthorized) || !errors.Is(srvErr, ErrNotAuthorized) {
		t.Fatalf("client %v, server %v; want ErrNotAuthorized on both", cliErr, srvErr)
	}
}

func TestAuthRejectsBadSignature(t *testing.T) {
	id, _ := NewIdentity()
	other, _ := NewIdentity()
	// Forge: claim id.Pub but sign with other's key.
	forged := Identity{Pub: id.Pub, Priv: other.Priv}
	_, cliErr, srvErr := handshake(&msmtPlane, &msmtPlane, forged, id)
	if !errors.Is(cliErr, ErrAuthRejected) || !errors.Is(srvErr, ErrAuthRejected) || errors.Is(srvErr, ErrNotAuthorized) {
		t.Fatalf("client %v, server %v; want ErrAuthRejected for the signature", cliErr, srvErr)
	}
}

// TestHandshakeVersionSkew: a measurement-plane peer whose version range
// is disjoint from the target's is refused with ErrVersionSkew, and the
// reject tells the client both ranges.
func TestHandshakeVersionSkew(t *testing.T) {
	id, _ := NewIdentity()
	future := msmtPlane
	future.VersionMin, future.VersionMax = msmtPlane.VersionMax+1, msmtPlane.VersionMax+2
	_, cliErr, srvErr := handshake(&future, &msmtPlane, id, id)
	if !errors.Is(cliErr, ErrVersionSkew) || !errors.Is(srvErr, ErrVersionSkew) {
		t.Fatalf("client %v, server %v; want ErrVersionSkew on both", cliErr, srvErr)
	}
	if msg := cliErr.Error(); !strings.Contains(msg, "[2,3]") || !strings.Contains(msg, "[1,1]") {
		t.Fatalf("reject %q does not name both version ranges", msg)
	}
}

// TestHandshakeSignsDomainNotBareNonce plays a malicious target: it hands
// the measurer a nonce of its choosing and checks that the signature that
// comes back is over the measurement plane's domain and version, never
// over the bare nonce, so a relay cannot use the measurer as a signing
// oracle for arbitrary 32-byte strings.
func TestHandshakeSignsDomainNotBareNonce(t *testing.T) {
	id, _ := NewIdentity()
	c, s := net.Pipe()
	defer s.Close()
	go func() {
		defer c.Close()
		_ = ClientHandshake(c, &msmtPlane, id)
	}()
	max := msmtPlane.MaxPayload
	if ft, _, err := ReadFrame(s, max, nil); err != nil || ft != FrameHello {
		t.Fatalf("hello: type %d, %v", ft, err)
	}
	nonce := bytes.Repeat([]byte{0xAB}, nonceLen)
	if err := WriteFrame(s, max, FrameWelcome, append([]byte{0, 1}, nonce...)); err != nil {
		t.Fatal(err)
	}
	ft, auth, err := ReadFrame(s, max, nil)
	if err != nil || ft != FrameAuth || len(auth) != ed25519.PublicKeySize+ed25519.SignatureSize {
		t.Fatalf("auth: type %d, %d bytes, %v", ft, len(auth), err)
	}
	sig := auth[ed25519.PublicKeySize:]
	if ed25519.Verify(id.Pub, nonce, sig) {
		t.Fatal("the measurer signed the bare nonce")
	}
	if !ed25519.Verify(id.Pub, msmtPlane.authMessage(1, nonce), sig) {
		t.Fatal("the signature is not over domain ‖ version ‖ nonce")
	}
}

// TestTargetRejectsGarbageHandshake: whatever a peer opens with instead
// of a measurement-plane hello, the target closes the connection; a
// well-formed frame gets a reject naming ErrBadHello first.
func TestTargetRejectsGarbageHandshake(t *testing.T) {
	id, _ := NewIdentity()
	addr, _, cleanup := startTarget(t, TargetConfig{RateBps: 8 * mbit}, id)
	defer cleanup()

	frame := func(ft FrameType, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msmtPlane.MaxPayload, ft, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want error // the reject's error; nil when the target just closes
	}{
		{"garbage length", bytes.Repeat([]byte{0xff}, 64), nil},
		{"control-plane hello", frame(FrameHello, []byte("FFRP\x00\x01\x00\x01")), ErrBadHello},
		{"auth before hello", frame(FrameAuth, make([]byte, 96)), ErrBadHello},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.in); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if tc.want != nil {
				ft, p, err := ReadFrame(conn, msmtPlane.MaxPayload, nil)
				if err != nil || ft != FrameReject || !errors.Is(rejected(p), tc.want) {
					t.Fatalf("reply: type %d %q, %v; want a reject naming %v", ft, p, err, tc.want)
				}
			}
			var buf [64]byte
			if _, err := conn.Read(buf[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("target kept the connection open: %v", err)
			}
		})
	}
}
