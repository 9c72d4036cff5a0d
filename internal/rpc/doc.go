// Package rpc is the control plane's inter-process seam: a small
// length-prefixed, versioned, authenticated request/response protocol over
// TCP (or any io.ReadWriteCloser — the tests run it over net.Pipe),
// carrying signed bandwidth-file submissions from BWAuth processes
// (coordd -dirauth-addr) to the directory-authority merge node (coordd
// -dirauth).
//
// The paper's deployment model (§4.3) is multiple independent BWAuths
// whose per-view measurements a directory authority merges; this package
// is the wire between those processes. Framing and authentication are
// internal/wire's, the same codec and handshake the measurement plane
// runs, under the control plane's own wire.Plane: its "FFRP" magic, its
// "flashflow-rpc-auth" signature domain and a payload bound sized for
// whole bandwidth files. A measurement-plane peer is refused at its first
// frame, and no signature made on one plane verifies on the other. This
// package adds only the request, response and error frames and the
// connection-caching client and server around them.
//
// Layering follows the interface-first transport separation used across
// the repo: Client dials through a caller-supplied Dial func and Server
// accepts any io.ReadWriteCloser via ServeConn, so every protocol path is
// exercisable without sockets, deterministically, under the race detector.
//
// The transport authenticates the *peer* (which process is speaking); the
// payloads it carries are additionally signed end-to-end by the submitting
// BWAuth (internal/dirauth.Submission), so the merge node's acceptance
// decisions never rest on transport identity alone. See DESIGN.md
// "Authenticated connections" for the frame grammar and "Distributed
// control plane" for the merge invariants.
package rpc
