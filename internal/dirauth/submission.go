package dirauth

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
)

// This file defines the signed, versioned v3bw submission a BWAuth
// process (coordd -dirauth-addr) sends to a directory-authority merge
// node. The signature is end-to-end: it is made by the BWAuth's identity
// key over the submission's content, independent of the RPC transport
// that carries it, so the merge node's acceptance decision never rests
// on which authenticated connection delivered the bytes — any courier
// may relay a submission, and no courier can forge one.

// Submission format version bounds this build understands. The version
// is bound into the signature, so a peer cannot re-label a submission
// as a different format version without invalidating it.
const (
	SubmissionVersionMin uint16 = 1
	SubmissionVersionMax uint16 = 1
)

// submissionSigPrefix domain-separates submission signatures from the
// identity key's other uses (RPC transport auth, the measurement-plane
// handshake).
const submissionSigPrefix = "flashflow-dirauth-submission\x00"

// Submission is one BWAuth's signed bandwidth-file view for one round.
type Submission struct {
	// BWAuth is the submitting authority's registered name.
	BWAuth string
	// Round is the measurement round the view covers. The merge service
	// requires rounds to be strictly increasing per BWAuth, which makes
	// replayed or duplicated submissions inert.
	Round int
	// Version is the submission format version (bounds above).
	Version uint16
	// Body is the v3bw text rendering of the view (WriteTo format).
	Body []byte
	// Sig is the BWAuth's ed25519 signature over SigningMessage.
	Sig []byte
}

// SigningMessage is the byte string the BWAuth signs: the domain prefix,
// then the version, round, name, and body, each length-delimited or
// fixed-width so no two distinct submissions share a message.
func (s *Submission) SigningMessage() []byte {
	msg := make([]byte, 0, len(submissionSigPrefix)+2+8+2+len(s.BWAuth)+8+len(s.Body))
	msg = append(msg, submissionSigPrefix...)
	msg = binary.BigEndian.AppendUint16(msg, s.Version)
	msg = binary.BigEndian.AppendUint64(msg, uint64(s.Round))
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(s.BWAuth)))
	msg = append(msg, s.BWAuth...)
	msg = binary.BigEndian.AppendUint64(msg, uint64(len(s.Body)))
	return append(msg, s.Body...)
}

// Sign sets Sig to the BWAuth's signature over the submission content.
func (s *Submission) Sign(priv ed25519.PrivateKey) {
	s.Sig = ed25519.Sign(priv, s.SigningMessage())
}

// VerifySig reports whether Sig is pub's valid signature over the
// submission content.
func (s *Submission) VerifySig(pub ed25519.PublicKey) bool {
	return len(s.Sig) == ed25519.SignatureSize && ed25519.Verify(pub, s.SigningMessage(), s.Sig)
}

// ErrBadSubmissionEncoding marks a submission blob that does not parse.
var ErrBadSubmissionEncoding = errors.New("dirauth: malformed submission encoding")

// Encode serializes the submission for transport:
//
//	u16be version | u64be round | u16be nameLen | name |
//	u64be bodyLen | body | 64-byte signature
//
// The layout is self-delimiting and decoded with exact consumption, so
// trailing bytes are rejected rather than silently ignored.
func (s *Submission) Encode() []byte {
	out := make([]byte, 0, 2+8+2+len(s.BWAuth)+8+len(s.Body)+len(s.Sig))
	out = binary.BigEndian.AppendUint16(out, s.Version)
	out = binary.BigEndian.AppendUint64(out, uint64(s.Round))
	out = binary.BigEndian.AppendUint16(out, uint16(len(s.BWAuth)))
	out = append(out, s.BWAuth...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(s.Body)))
	out = append(out, s.Body...)
	return append(out, s.Sig...)
}

// DecodeSubmission parses an Encode blob. It validates structure only;
// signature and version acceptance are the merge service's decisions.
//
// The returned Body and Sig alias p, so the caller hands p over: it must
// not modify p afterwards. An rpc handler's request payload is a fresh
// buffer per frame (rpc.ReadFrame), so the body crosses from the wire
// into the merge node's accepted view without a copy.
func DecodeSubmission(p []byte) (*Submission, error) {
	var s Submission
	if len(p) < 2+8+2 {
		return nil, fmt.Errorf("%w: short header", ErrBadSubmissionEncoding)
	}
	s.Version = binary.BigEndian.Uint16(p)
	s.Round = int(binary.BigEndian.Uint64(p[2:]))
	nameLen := int(binary.BigEndian.Uint16(p[10:]))
	p = p[12:]
	if len(p) < nameLen+8 {
		return nil, fmt.Errorf("%w: truncated name", ErrBadSubmissionEncoding)
	}
	s.BWAuth = string(p[:nameLen])
	bodyLen := binary.BigEndian.Uint64(p[nameLen:])
	p = p[nameLen+8:]
	if bodyLen > uint64(len(p)) || uint64(len(p)) != bodyLen+ed25519.SignatureSize {
		return nil, fmt.Errorf("%w: body/signature length mismatch", ErrBadSubmissionEncoding)
	}
	s.Body = p[:bodyLen:bodyLen]
	s.Sig = p[bodyLen:]
	return &s, nil
}
