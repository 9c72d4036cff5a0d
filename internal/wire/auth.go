package wire

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Identity is an ed25519 keypair identifying a measurer (its public key is
// distributed to targets by the BWAuth, whose own key the consensus
// anchors — §4.1) or a control-plane node.
type Identity struct {
	Pub  ed25519.PublicKey
	Priv ed25519.PrivateKey
}

// NewIdentity generates a fresh identity.
func NewIdentity() (Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return Identity{}, fmt.Errorf("generate identity: %w", err)
	}
	return Identity{Pub: pub, Priv: priv}, nil
}

// Plane is one protocol's handshake and framing parameters. Every plane
// runs the same handshake; the magic and the domain keep planes apart: a
// client dialing the wrong plane is refused at its first frame
// (ErrBadHello), and a signature made on one plane never verifies on
// another.
type Plane struct {
	// Magic opens every hello.
	Magic string
	// Domain prefixes every signed auth message.
	Domain string
	// VersionMin and VersionMax bound the protocol versions this build
	// speaks; a connection runs at the highest version both sides speak.
	VersionMin, VersionMax uint16
	// MaxPayload bounds every frame payload on the plane.
	MaxPayload int
}

// msmtPlane is the measurement plane: a measurer authenticating to a
// target relay.
var msmtPlane = Plane{
	Magic:      "FFMP",
	Domain:     "flashflow-msmt-auth\x00",
	VersionMin: 1,
	VersionMax: 1,
	MaxPayload: 4096,
}

// Handshake errors. A server returns them; a client returns the one the
// server's reject named, followed by the server's reason.
var (
	// ErrBadHello marks an opening frame without the plane's magic: the
	// peer speaks another plane or no FlashFlow protocol at all.
	ErrBadHello = errors.New("wire: bad protocol hello")
	// ErrVersionSkew marks disjoint version ranges between the peers.
	ErrVersionSkew = errors.New("wire: no protocol version in common")
	// ErrAuthRejected marks a failed signature check or another refusal
	// of the client's authentication.
	ErrAuthRejected = errors.New("wire: authentication rejected")
	// ErrNotAuthorized marks a client key outside the server's allowed
	// set. It is an ErrAuthRejected.
	ErrNotAuthorized = fmt.Errorf("%w: key not authorized", ErrAuthRejected)
)

// rejectReasons are the errors a FrameReject can name: its first payload
// byte indexes this table and the rest is the server's readable reason.
var rejectReasons = [...]error{ErrBadFrame, ErrBadHello, ErrVersionSkew, ErrNotAuthorized, ErrAuthRejected}

const nonceLen = 32

// handshakeScratchLen bounds every handshake frame on every plane (the
// largest, the auth frame's key and signature, is 96 bytes), so a
// handshake reads into one stack buffer and a peer that has not yet
// authenticated cannot make either side allocate for a large declared
// length. A plane's MaxPayload applies only after the handshake.
const handshakeScratchLen = 128

// authMessage is what a client signs: the plane's domain, the negotiated
// version, then the server's nonce. The domain keeps a signature from
// verifying on another plane or under another use of the same key; the
// version makes a welcome downgraded in flight fail verification.
func (p *Plane) authMessage(version uint16, nonce []byte) []byte {
	msg := make([]byte, 0, len(p.Domain)+2+len(nonce))
	msg = append(msg, p.Domain...)
	msg = binary.BigEndian.AppendUint16(msg, version)
	return append(msg, nonce...)
}

// ClientHandshake authenticates id to the server on rw over plane p:
// hello (magic, version range), welcome (version, nonce), auth (key and
// signature over domain ‖ version ‖ nonce), authok.
func ClientHandshake(rw io.ReadWriter, p *Plane, id Identity) error {
	hello := make([]byte, 0, len(p.Magic)+4)
	hello = append(hello, p.Magic...)
	hello = binary.BigEndian.AppendUint16(hello, p.VersionMin)
	hello = binary.BigEndian.AppendUint16(hello, p.VersionMax)
	if err := WriteFrame(rw, handshakeScratchLen, FrameHello, hello); err != nil {
		return err
	}
	var scratch [handshakeScratchLen]byte
	t, welcome, err := ReadFrame(rw, handshakeScratchLen, scratch[:])
	if err != nil {
		return err
	}
	if t == FrameReject {
		return rejected(welcome)
	}
	if t != FrameWelcome || len(welcome) != 2+nonceLen {
		return ErrBadFrame
	}
	version := binary.BigEndian.Uint16(welcome)
	if version < p.VersionMin || version > p.VersionMax {
		return ErrVersionSkew
	}
	auth := make([]byte, 0, ed25519.PublicKeySize+ed25519.SignatureSize)
	auth = append(auth, id.Pub...)
	auth = append(auth, ed25519.Sign(id.Priv, p.authMessage(version, welcome[2:]))...)
	if err := WriteFrame(rw, handshakeScratchLen, FrameAuth, auth); err != nil {
		return err
	}
	t, reply, err := ReadFrame(rw, handshakeScratchLen, scratch[:])
	if err != nil {
		return err
	}
	if t == FrameReject {
		return rejected(reply)
	}
	if t != FrameAuthOK {
		return ErrBadFrame
	}
	return nil
}

// ServerHandshake runs the server side of ClientHandshake on rw over plane
// p and returns the client's public key, which must be in allowed. Every
// refusal sends a reject naming its reason before returning the error.
func ServerHandshake(rw io.ReadWriter, p *Plane, allowed map[string]bool) (ed25519.PublicKey, error) {
	var scratch [handshakeScratchLen]byte
	t, hello, err := ReadFrame(rw, handshakeScratchLen, scratch[:])
	if err != nil {
		return nil, err
	}
	if t != FrameHello || len(hello) != len(p.Magic)+4 || string(hello[:len(p.Magic)]) != p.Magic {
		return nil, reject(rw, ErrBadHello, "want a "+p.Magic+" hello")
	}
	cMin := binary.BigEndian.Uint16(hello[len(p.Magic):])
	cMax := binary.BigEndian.Uint16(hello[len(p.Magic)+2:])
	version := min(cMax, p.VersionMax)
	if version < max(cMin, p.VersionMin) {
		return nil, reject(rw, ErrVersionSkew, fmt.Sprintf(
			"client speaks [%d,%d], server [%d,%d]", cMin, cMax, p.VersionMin, p.VersionMax))
	}

	welcome := make([]byte, 2+nonceLen)
	binary.BigEndian.PutUint16(welcome, version)
	if _, err := rand.Read(welcome[2:]); err != nil {
		return nil, fmt.Errorf("wire: nonce: %w", err)
	}
	if err := WriteFrame(rw, handshakeScratchLen, FrameWelcome, welcome); err != nil {
		return nil, err
	}

	t, auth, err := ReadFrame(rw, handshakeScratchLen, scratch[:])
	if err != nil {
		return nil, err
	}
	if t != FrameAuth || len(auth) != ed25519.PublicKeySize+ed25519.SignatureSize {
		return nil, reject(rw, ErrBadFrame, "want an auth frame")
	}
	// Copy: the key outlives the scratch buffer (the target re-checks it
	// before every circuit; the control plane hands it to every call).
	pub := append(ed25519.PublicKey(nil), auth[:ed25519.PublicKeySize]...)
	if !allowed[string(pub)] {
		return nil, reject(rw, ErrNotAuthorized, "")
	}
	if !ed25519.Verify(pub, p.authMessage(version, welcome[2:]), auth[ed25519.PublicKeySize:]) {
		return nil, reject(rw, ErrAuthRejected, "bad signature")
	}
	if err := WriteFrame(rw, handshakeScratchLen, FrameAuthOK, nil); err != nil {
		return nil, err
	}
	return pub, nil
}

// reject sends a FrameReject naming err and reason, best effort (the
// connection is being refused either way), and returns err.
func reject(w io.Writer, err error, reason string) error {
	code := byte(slices.Index(rejectReasons[:], err))
	_ = WriteFrame(w, handshakeScratchLen, FrameReject, append([]byte{code}, reason...))
	return err
}

// rejected decodes a FrameReject payload into the error it names.
func rejected(payload []byte) error {
	if len(payload) == 0 || int(payload[0]) >= len(rejectReasons) {
		return ErrBadFrame
	}
	err := rejectReasons[payload[0]]
	if len(payload) == 1 {
		return err
	}
	return fmt.Errorf("%w (server: %s)", err, payload[1:])
}
