// Package wire implements the FlashFlow measurement protocol over real
// network connections: one authenticated connection between each of a
// BWAuth's measurers and a target relay (§4.1) multiplexing that
// measurer's concurrent measurement circuits, in-band circuit setup with
// an X25519 key exchange (MsmtCreate/MsmtCreated cells), cell streaming
// with relay-side decryption and echo, probabilistic echo-content
// verification against the circuit keystream, and per-second byte
// accounting.
//
// It also owns the one frame codec and the one authenticated handshake in
// the repository. Both planes use them: the measurement plane here, and
// the control plane (internal/rpc), which declares its own Plane value so
// that neither plane's peers nor signatures are accepted by the other.
//
// This package is the reproduction's substitute for the paper's 1,200-line
// patch to Tor v0.3.5.7: instead of patching Tor, the target side is a
// standalone relay speaking the same measurement protocol with real
// cryptography on real sockets. The simulation experiments use
// core.SimBackend; this package exists so the protocol itself — handshake,
// framing, crypto, verification, accounting — is exercised for real, and
// it powers the runnable examples and the wire Backend.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// FrameType identifies a control frame.
type FrameType uint8

// Handshake frame types, shared by every Plane. A plane numbers its own
// frames above FrameReject (the control plane's request, response and
// error frames are 6–8). Measurement-plane circuit setup is not framed:
// it rides the cell stream itself as MsmtCreate/MsmtCreated cells (the
// paper's new circuit-creation cell, §4.1), so a multiplexed connection
// never interleaves frame bytes with cell bytes after authentication.
const (
	// FrameHello is the client's opening frame: the plane's magic plus
	// the client's supported version range.
	FrameHello FrameType = 1
	// FrameWelcome answers hello with the negotiated version and the
	// server's 32-byte nonce.
	FrameWelcome FrameType = 2
	// FrameAuth carries the client's public key and its signature over
	// domain ‖ version ‖ nonce.
	FrameAuth FrameType = 3
	// FrameAuthOK acknowledges successful authentication.
	FrameAuthOK FrameType = 4
	// FrameReject refuses the connection: a reason code and readable
	// text, after which the server closes.
	FrameReject FrameType = 5
)

// Frame errors.
var (
	// ErrFrameTooLarge marks a frame whose declared payload exceeds the
	// plane's bound; the reader refuses it before allocating.
	ErrFrameTooLarge = errors.New("wire: frame payload too large")
	// ErrBadFrame marks a frame of the wrong type or shape for the
	// protocol state.
	ErrBadFrame = errors.New("wire: malformed frame")
)

// frameHeaderLen is the length prefix (4 bytes) plus the type byte.
const frameHeaderLen = 5

// WriteFrame writes one length-prefixed frame whose payload may not
// exceed max bytes. Header and payload go out in a single Write, so a
// frame is never split across two syscalls (and never interleaves with
// another writer's bytes on a shared conn).
func WriteFrame(w io.Writer, max int, t FrameType, payload []byte) error {
	if len(payload) > max {
		return ErrFrameTooLarge
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	buf[4] = byte(t)
	copy(buf[frameHeaderLen:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame whose payload may not exceed max bytes. A
// longer declared length fails with ErrFrameTooLarge before any payload
// allocation. The payload is decoded into scratch when it fits (it then
// aliases scratch and is valid only until the next read into the same
// buffer); a nil or too-small scratch allocates a buffer the caller owns.
// A stream that ends exactly at a frame boundary returns a bare io.EOF; one
// that ends inside a frame returns io.ErrUnexpectedEOF, so a torn tail is
// detected, never read as a frame.
func ReadFrame(r io.Reader, max int, scratch []byte) (FrameType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if uint64(n) > uint64(max) {
		return 0, nil, ErrFrameTooLarge
	}
	var payload []byte
	if uint32(len(scratch)) >= n {
		payload = scratch[:n]
	} else {
		payload = make([]byte, n)
	}
	if n > 0 {
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("wire: read frame payload: %w", err)
		}
	}
	return FrameType(hdr[4]), payload, nil
}
