package rpc

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"

	"flashflow/internal/wire"
)

// plane is the control plane's handshake and framing: wire's handshake
// under its own magic and signature domain, so a measurement-plane peer
// is refused at its first frame and no signature crosses planes. Its
// payload bound is sized for bandwidth files, not for control chatter: a
// submission carries a whole v3bw body (a million-relay view is ~50 MB).
var plane = wire.Plane{
	Magic:      "FFRP",
	Domain:     "flashflow-rpc-auth\x00",
	VersionMin: 1,
	VersionMax: 1,
	MaxPayload: 64 << 20,
}

// Request/response frame types, numbered after wire's handshake frames.
const (
	// FrameRequest is one call: a method byte followed by the body.
	FrameRequest wire.FrameType = 6
	// FrameResponse is a successful call's reply body.
	FrameResponse wire.FrameType = 7
	// FrameError is a handler-level failure: the connection stays healthy,
	// the payload is the error message (surfaced as *ServerError).
	FrameError wire.FrameType = 8
)

// MethodSubmitV3BW is the control plane's submission method: the request
// body is an encoded dirauth.Submission, the response body is the merge
// node's plain-text acknowledgement. Method numbers are part of the
// protocol surface; never renumber, only append.
const MethodSubmitV3BW uint8 = 1

// ErrClosed marks use of a closed client or server.
var ErrClosed = errors.New("rpc: closed")

// ServerError is a handler-level failure relayed to the caller. The
// connection that carried it remains usable: handler errors are part of
// the protocol, not transport faults, so the client does not redial.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "rpc: server: " + e.Msg }

// DeriveIdentity deterministically derives an ed25519 identity from a
// shared secret and a node name: the key seed is
// SHA-256("flashflow-rpc-identity" || secret || name). It exists so the
// multi-process smoke recipes (OPERATIONS.md) can stand up a 3-BWAuth +
// 1-dirauth topology with one -auth-secret flag instead of provisioning
// key files; a production deployment distributes real per-node keys and
// never uses it.
func DeriveIdentity(secret, name string) wire.Identity {
	h := sha256.New()
	h.Write([]byte("flashflow-rpc-identity\x00"))
	h.Write([]byte(secret))
	h.Write([]byte{0})
	h.Write([]byte(name))
	priv := ed25519.NewKeyFromSeed(h.Sum(nil))
	return wire.Identity{Pub: priv.Public().(ed25519.PublicKey), Priv: priv}
}
