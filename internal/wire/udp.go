package wire

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"

	"flashflow/internal/cell"
)

// The UDP data plane (§7: measurement does not need TCP's in-order
// delivery). Control stays on the authenticated TCP connection —
// handshake frames, circuit creation, MsmtEnd — while measurement cells
// travel as datagrams:
//
//   - Binding: the measurer sends an MsmtUdp cell over TCP whose payload
//     carries a random 16-byte token; the target registers token→session
//     and echoes the cell as the ack. The measurer then sends hello
//     datagrams (magic + token) from its data socket until the target,
//     having matched the token, binds the datagram source address to the
//     session and echoes the hello back.
//   - Framing: data datagrams are cell-aligned — length is a multiple of
//     cell.Size, up to udpDatagramCells cells per datagram. No datagram
//     header: the hello's length (udpHelloLen % cell.Size != 0) cannot
//     collide with cell data. Fat datagrams are the point: one
//     sendto/recvfrom moves up to 127 cells, where loopback TCP pays its
//     stream overhead per 64 KiB anyway but adds ordering and
//     retransmission the measurement never asked for.
//   - Sequencing: forward cells carry the measurer's per-circuit send
//     sequence in payload[0:8]. The target decrypts (its sequential §4.1
//     CTR work, unchanged) and stamps the echo with that sequence
//     (plaintext) plus its own per-circuit decrypt index in
//     payload[8:16]. The measurer verifies payload[16:] against the
//     forward keystream at the *target's* index, so verification is
//     immune to forward loss and reordering, and the sequence gap
//     accounting turns loss into numbers (MeasureResult.LostCells)
//     instead of TCP retransmit stalls.
//   - Loss: a datagram for an unknown source or circuit is dropped (its
//     cells are rewritten to Padding, which the measurer ignores) — over
//     UDP, "drop" is the only honest answer; the TCP plane keeps its
//     kill-the-connection strictness.

// udpToken identifies a pending UDP bind; 16 random bytes generated by
// the measurer and proven by echoing them in the hello datagram.
type udpToken [16]byte

// udpHelloMagic distinguishes hello datagrams from stray traffic.
var udpHelloMagic = [8]byte{'f', 'f', 'U', 'D', 'P', 'v', '0', '1'}

// udpHelloLen is the hello datagram length: magic + token. Deliberately
// not a multiple of cell.Size.
const udpHelloLen = 8 + 16

// udpDatagramCells caps the cells per datagram: 127 × 514 = 65278 bytes,
// under the 65507-byte UDP payload maximum.
const udpDatagramCells = 127

// udpDatagramBytes is the maximum data datagram size.
const udpDatagramBytes = udpDatagramCells * cell.Size

// udpSockBuf is the socket buffer size requested for UDP data sockets.
// Fat datagrams arrive in 64 KiB units; default rmem on many kernels
// holds only a few before the receiver drains, turning scheduler jitter
// into packet loss. The kernel silently caps this to rmem_max.
const udpSockBuf = 8 << 20

// DatagramConn is the packet seam ServeUDP runs on: a *net.UDPConn in
// production (see NewUDPDatagramConn), an in-memory pair in tests.
type DatagramConn interface {
	// ReadFrom reads one datagram into p and returns its length and
	// source address.
	ReadFrom(p []byte) (int, netip.AddrPort, error)
	// WriteTo sends p as one datagram to addr.
	WriteTo(p []byte, addr netip.AddrPort) (int, error)
	Close() error
}

// udpConn adapts *net.UDPConn to DatagramConn with the allocation-free
// AddrPort read/write calls.
type udpConn struct{ c *net.UDPConn }

// NewUDPDatagramConn wraps a UDP listener for Target.ServeUDP, requesting
// measurement-sized socket buffers.
func NewUDPDatagramConn(c *net.UDPConn) DatagramConn {
	_ = c.SetReadBuffer(udpSockBuf)
	_ = c.SetWriteBuffer(udpSockBuf)
	return udpConn{c}
}

func (u udpConn) ReadFrom(p []byte) (int, netip.AddrPort, error) {
	return u.c.ReadFromUDPAddrPort(p)
}

func (u udpConn) WriteTo(p []byte, addr netip.AddrPort) (int, error) {
	return u.c.WriteToUDPAddrPort(p, addr)
}

func (u udpConn) Close() error { return u.c.Close() }

// udpSession joins a bound datagram source to its connection's demux
// state. addr is maintained under Target.udpMu.
type udpSession struct {
	ms    *muxState
	token udpToken
	addr  netip.AddrPort // zero until the hello binds it
}

// bindUDPLocked handles an MsmtUdp cell (ms.mu held): registers the
// session under the cell's token so the hello datagram can complete the
// bind. The cell's echo is the measurer's ack. A second bind on the same
// connection is a protocol error.
func (ms *muxState) bindUDPLocked(cb []byte) error {
	if ms.udp != nil {
		return errors.New("wire: duplicate UDP bind on connection")
	}
	var tok udpToken
	copy(tok[:], cell.PayloadOf(cb)[:16])
	sess := &udpSession{ms: ms, token: tok}
	if err := ms.t.registerUDP(sess); err != nil {
		return err
	}
	ms.udp = sess
	return nil
}

// registerUDP installs a session under its token.
func (t *Target) registerUDP(sess *udpSession) error {
	t.udpMu.Lock()
	defer t.udpMu.Unlock()
	if t.udpTokens == nil {
		t.udpTokens = make(map[udpToken]*udpSession)
		t.udpAddrs = make(map[netip.AddrPort]*udpSession)
	}
	if _, ok := t.udpTokens[sess.token]; ok {
		return errors.New("wire: UDP token collision")
	}
	t.udpTokens[sess.token] = sess
	return nil
}

// bindUDPAddr completes a bind when a hello datagram's token matches a
// registered session: the datagram's source address now routes to the
// session. Hello retransmits rebind idempotently.
func (t *Target) bindUDPAddr(tok udpToken, src netip.AddrPort) *udpSession {
	t.udpMu.Lock()
	defer t.udpMu.Unlock()
	sess := t.udpTokens[tok]
	if sess == nil {
		return nil
	}
	if sess.addr.IsValid() && sess.addr != src {
		delete(t.udpAddrs, sess.addr)
	}
	sess.addr = src
	t.udpAddrs[src] = sess
	return sess
}

// lookupUDP routes a data datagram's source address to its session.
func (t *Target) lookupUDP(src netip.AddrPort) *udpSession {
	t.udpMu.Lock()
	defer t.udpMu.Unlock()
	return t.udpAddrs[src]
}

// unbindUDP tears a connection's UDP binding down (conn close).
func (t *Target) unbindUDP(ms *muxState) {
	ms.mu.Lock()
	sess := ms.udp
	ms.udp = nil
	ms.mu.Unlock()
	if sess == nil {
		return
	}
	t.udpMu.Lock()
	delete(t.udpTokens, sess.token)
	if sess.addr.IsValid() {
		delete(t.udpAddrs, sess.addr)
	}
	t.udpMu.Unlock()
}

// ServeUDP serves the datagram data plane on pc until pc's reads fail
// (close pc to stop). One loop serves every bound session: each datagram
// is demuxed, decrypted cell by cell and stamped under its connection's
// lock, then paced and echoed to the source address.
// Datagrams that match no session or no circuit are dropped per the loss
// semantics above. Run one ServeUDP loop per listener; a target typically
// has one. Close waits for the loop, so close pc first; a ServeUDP called
// after Close returns at once.
func (t *Target) ServeUDP(pc DatagramConn) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	// Join under the closed check's lock, as HandleConn does, so this Add
	// can never race Close's Wait.
	t.wg.Add(1)
	t.mu.Unlock()
	defer t.wg.Done()
	arena := cell.GetSuper()
	defer cell.PutSuper(arena)
	buf := (*arena)[:cell.SuperBytes]
	var lastAddr netip.AddrPort
	var lastSess *udpSession
	for {
		n, src, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		if n == udpHelloLen && [8]byte(buf[:8]) == udpHelloMagic {
			if sess := t.bindUDPAddr(udpToken(buf[8:udpHelloLen]), src); sess != nil {
				_, _ = pc.WriteTo(buf[:udpHelloLen], src)
				if src == lastAddr {
					lastSess = sess
				}
			}
			continue
		}
		if n == 0 || n%cell.Size != 0 {
			continue // not cell framing: drop
		}
		sess := lastSess
		if src != lastAddr || sess == nil {
			sess = t.lookupUDP(src)
			if sess == nil {
				continue
			}
			lastAddr, lastSess = src, sess
		}
		dg := buf[:n]
		dataCells := t.serveUDPDatagram(sess.ms, dg)
		if dataCells == 0 {
			continue // nothing decryptable: don't echo pure noise
		}
		if t.pace.rateBps > 0 {
			t.pace.wait(float64(n * 8))
		}
		if _, err := pc.WriteTo(dg, src); err != nil {
			return
		}
		t.counts.add(float64(dataCells * cell.Size))
	}
}

// serveUDPDatagram demuxes and decrypts one data datagram in place under
// the session's connection lock, returning the number of data cells. Cells
// that cannot be served (unknown circuit, non-data command) are rewritten
// to Padding so the echo carries them harmlessly.
//
// Stamping: each data cell's pre-decrypt payload[0:8] (the measurer's send
// sequence, which the decrypt would garble) is saved and restored as
// plaintext, and payload[8:16] is overwritten with the target's own
// per-circuit decrypt index — the offset the measurer verifies the
// remaining 493 bytes against. The §4.1 crypto work is untouched: the
// sequential CTR state advances one full payload per cell, identical to
// the TCP plane.
func (t *Target) serveUDPDatagram(ms *muxState, dg []byte) int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	dataCells := 0
	for off := 0; off+cell.Size <= len(dg); off += cell.Size {
		cb := dg[off : off+cell.Size]
		var st *cell.CryptoState
		if cell.CommandOf(cb) == cell.MsmtData {
			st = ms.circuits.get(cell.CircIDOf(cb))
		}
		if st == nil {
			cb[4] = byte(cell.Padding)
			continue
		}
		p := cell.PayloadOf(cb)
		seq := binary.BigEndian.Uint64(p[0:8])
		idx := st.Processed()
		t.decrypt(st, p)
		binary.BigEndian.PutUint64(p[0:8], seq)
		binary.BigEndian.PutUint64(p[8:16], idx)
		dataCells++
	}
	return dataCells
}

// newUDPToken draws a random bind token.
func newUDPToken() (udpToken, error) {
	var tok udpToken
	if _, err := rand.Read(tok[:]); err != nil {
		return tok, fmt.Errorf("wire: udp token: %w", err)
	}
	return tok, nil
}
