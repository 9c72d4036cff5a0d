// Package cell implements the Tor-like cell layer used by the FlashFlow
// reproduction: fixed 514-byte cells, command encoding, and the per-hop
// relay crypto (AES-128-CTR, one cipher step per cell) that a target relay
// must perform on measurement traffic. The paper's measurement protocol
// requires the target to do exactly the cryptographic work it would do for
// normal client traffic (§4.1), so this package implements real cipher
// operations rather than simulating them.
package cell

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Size is the fixed length of a Tor cell on the wire. Tor link protocol 4+
// uses 514-byte cells (4-byte circuit ID, 1-byte command, 509-byte payload).
const Size = 514

// PayloadSize is the number of payload bytes carried by each cell.
const PayloadSize = Size - 5

// Command identifies the cell type. The values mirror the subset of Tor
// commands the reproduction needs, plus the measurement commands added by
// the FlashFlow patch.
type Command uint8

// Cell commands. MsmtCreate/MsmtCreated establish a measurement circuit
// (a new type of circuit-creation cell per §4.1); MsmtData carries
// measurement payload; MsmtBG carries the relay's per-second background
// (normal traffic) byte report; MsmtEnd terminates a measurement; MsmtUdp
// binds a datagram data plane to the connection (§7 transport extension):
// the payload carries an opaque token the measurer repeats in its UDP
// hello so the target can associate the datagram source address with this
// connection's circuits.
const (
	Padding     Command = 0
	Create      Command = 1
	Created     Command = 2
	Relay       Command = 3
	Destroy     Command = 4
	MsmtCreate  Command = 10
	MsmtCreated Command = 11
	MsmtData    Command = 12
	MsmtBG      Command = 13
	MsmtEnd     Command = 14
	MsmtUdp     Command = 15
)

// String implements fmt.Stringer for diagnostics.
func (c Command) String() string {
	switch c {
	case Padding:
		return "PADDING"
	case Create:
		return "CREATE"
	case Created:
		return "CREATED"
	case Relay:
		return "RELAY"
	case Destroy:
		return "DESTROY"
	case MsmtCreate:
		return "MSMT_CREATE"
	case MsmtCreated:
		return "MSMT_CREATED"
	case MsmtData:
		return "MSMT_DATA"
	case MsmtBG:
		return "MSMT_BG"
	case MsmtEnd:
		return "MSMT_END"
	case MsmtUdp:
		return "MSMT_UDP"
	default:
		return fmt.Sprintf("UNKNOWN(%d)", uint8(c))
	}
}

// The in-place accessors below are the allocation-free view of an encoded
// cell: the measurement data plane operates directly on wire buffers
// (header parse, payload crypto, echo checks) without ever copying the
// 509-byte payload. Callers must pass a slice of at least Size bytes; the
// accessors do not re-validate length beyond what slicing enforces.

// PutHeader writes the 5-byte cell header (circuit ID + command) into buf,
// leaving the payload bytes untouched. buf must hold at least Size bytes.
func PutHeader(buf []byte, circID uint32, cmd Command) {
	binary.BigEndian.PutUint32(buf[0:4], circID)
	buf[4] = byte(cmd)
}

// CircIDOf returns the circuit ID of the encoded cell in buf.
func CircIDOf(buf []byte) uint32 { return binary.BigEndian.Uint32(buf[0:4]) }

// CommandOf returns the command of the encoded cell in buf.
func CommandOf(buf []byte) Command { return Command(buf[4]) }

// PayloadOf returns the payload portion of the encoded cell in buf,
// aliasing buf (no copy). Mutations through the returned slice — payload
// fill, in-place crypto — are visible in the wire buffer.
func PayloadOf(buf []byte) []byte { return buf[5:Size] }

// KeyMaterial holds the forward (measurer→relay) key and IV for one
// circuit hop, derived from the handshake shared secret. Measurement
// cells only travel forward, and the echo returns the target's forward
// decrypt, so no backward direction is derived.
type KeyMaterial struct {
	ForwardKey [16]byte
	ForwardIV  [16]byte
}

// DeriveKeys expands a shared secret into circuit key material using an
// HKDF-style SHA-256 expansion (stand-in for Tor's KDF-RFC5869).
func DeriveKeys(secret []byte) KeyMaterial {
	var km KeyMaterial
	expand := func(label string, out []byte) {
		mac := hmac.New(sha256.New, secret)
		mac.Write([]byte(label))
		sum := mac.Sum(nil)
		copy(out, sum)
	}
	expand("flashflow-fwd-key", km.ForwardKey[:])
	expand("flashflow-fwd-iv", km.ForwardIV[:])
	return km
}

// CryptoState carries the stream cipher state for one direction of one
// circuit hop. Cells must be processed in order, as in Tor.
type CryptoState struct {
	stream cipher.Stream
	count  uint64
}

// NewCryptoState initializes AES-128-CTR with the given key and IV.
func NewCryptoState(key, iv [16]byte) (*CryptoState, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("new cipher: %w", err)
	}
	return &CryptoState{stream: cipher.NewCTR(block, iv[:])}, nil
}

// ApplyBytes encrypts or decrypts one cell payload in place (CTR mode is
// an involution when both sides keep matching stream positions) directly
// on a wire buffer (typically PayloadOf of an encoded cell). This is the
// zero-allocation hot path: the cipher stream was allocated once at
// circuit setup and XORKeyStream never touches the heap. Each call
// advances the stream by exactly len(p) bytes, so cells must still be
// processed in order and payload slices must all be PayloadSize long for
// the two endpoints to stay in step.
func (s *CryptoState) ApplyBytes(p []byte) {
	s.stream.XORKeyStream(p, p)
	s.count++
}

// Processed returns the number of cells this state has transformed.
func (s *CryptoState) Processed() uint64 { return s.count }
