package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"flashflow/internal/cell"
)

// Measurer side of the UDP data plane. The control connection (TCP) still
// carries authentication, MsmtCreate handshakes, the MsmtUdp bind, and the
// MsmtEnd teardown; only measurement cells move to datagrams. See udp.go
// for the protocol.

// udpHelloTries bounds the hello retransmit loop: the bind token is
// already registered over TCP, so on any working path the first or second
// hello lands; ~1s of 20ms retries covers scheduling hiccups.
const udpHelloTries = 50

// udpHelloRetry is the per-try hello ack timeout.
const udpHelloRetry = 20 * time.Millisecond

// udpLingerGrace is how long the echo reader lingers for straggler
// datagrams after the circuits ended, when some echoes are still missing.
// Whatever has not arrived by then is loss.
const udpLingerGrace = 250 * time.Millisecond

// setupUDP binds a datagram data plane: MsmtUdp bind over the control
// connection, then the hello exchange on a freshly dialed data socket.
// Returns the data connection with no deadline set.
func setupUDP(w io.Writer, cr *cellReader, dialData Dialer) (net.Conn, error) {
	tok, err := newUDPToken()
	if err != nil {
		return nil, err
	}
	var cb [cell.Size]byte
	cell.PutHeader(cb[:], 0, cell.MsmtUdp)
	copy(cell.PayloadOf(cb[:])[:16], tok[:])
	if _, err := w.Write(cb[:]); err != nil {
		return nil, fmt.Errorf("send udp bind: %w", err)
	}
	ack, err := cr.next()
	if err != nil {
		return nil, fmt.Errorf("read udp bind ack: %w", err)
	}
	if cmd := cell.CommandOf(ack); cmd != cell.MsmtUdp {
		return nil, fmt.Errorf("wire: expected MSMT_UDP ack, got %v", cmd)
	}
	data, err := dialData()
	if err != nil {
		return nil, fmt.Errorf("dial data: %w", err)
	}
	if uc, ok := data.(*net.UDPConn); ok {
		_ = uc.SetReadBuffer(udpSockBuf)
		_ = uc.SetWriteBuffer(udpSockBuf)
	}
	var hello [udpHelloLen]byte
	copy(hello[:8], udpHelloMagic[:])
	copy(hello[8:], tok[:])
	var resp [udpHelloLen]byte
	for try := 0; ; try++ {
		if _, err := data.Write(hello[:]); err != nil {
			data.Close()
			return nil, fmt.Errorf("send udp hello: %w", err)
		}
		_ = data.SetReadDeadline(time.Now().Add(udpHelloRetry))
		n, err := data.Read(resp[:])
		if err == nil && n == udpHelloLen && resp == hello {
			break
		}
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			data.Close()
			return nil, fmt.Errorf("read udp hello ack: %w", err)
		}
		if try+1 >= udpHelloTries {
			data.Close()
			return nil, errors.New("wire: udp hello timed out")
		}
	}
	_ = data.SetReadDeadline(time.Time{})
	return data, nil
}

// waitUDPDrain blocks until every sent cell's echo arrived, echo progress
// stalls (loss — nothing more is coming), or the context dies. Called
// before the MsmtEnd teardown: ends travel on the TCP control plane and
// would otherwise race past in-flight datagrams on the data socket,
// tearing circuits down under their own tail and inflating LostCells.
func waitUDPDrain(ctx context.Context, sent int64, received *atomic.Int64) {
	deadline := time.Now().Add(3 * time.Second)
	last := received.Load()
	lastProgress := time.Now()
	for received.Load() < sent && ctx.Err() == nil {
		now := time.Now()
		if r := received.Load(); r != last {
			last, lastProgress = r, now
		}
		if now.Sub(lastProgress) > udpLingerGrace || now.After(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readUDP consumes the datagram echo stream. Unlike the TCP stream it is
// not an in-order sequence: each data cell carries its own send sequence
// (payload[0:8], plaintext) and the target's decrypt index (payload[8:16]),
// so verification uses the target's index — correct under loss and
// reordering — while the send sequence drives flow control and loss
// accounting. A sequence jumping past the expected value releases the gap
// too: those cells are lost (or still in flight; a reordered straggler
// then arrives below its circuit's watermark and is counted without a
// second release).
//
// Termination: the sender sets stop once the MsmtEnd exchange on the
// control plane completes and arms a read deadline; the reader exits when
// every sent cell is accounted for or the deadline expires.
func (r *echoReader) readUDP(data net.Conn) error {
	buf := cell.GetSuper()
	defer cell.PutSuper(buf)
	dg := (*buf)[:udpDatagramBytes]
	for {
		n, err := data.Read(dg)
		if err != nil {
			if r.stop.Load() && errors.Is(err, os.ErrDeadlineExceeded) {
				return nil
			}
			return fmt.Errorf("read echo: %w", err)
		}
		if n == 0 || n%cell.Size != 0 {
			continue // duplicate hello ack or stray datagram
		}
		dataCells := 0
		for off := 0; off < n; off += cell.Size {
			cb := dg[off : off+cell.Size]
			switch cmd := cell.CommandOf(cb); cmd {
			case cell.MsmtData:
				idx, err := r.circuit(cb)
				if err != nil {
					return err
				}
				dataCells++
				p := cell.PayloadOf(cb)
				seq := binary.BigEndian.Uint64(p[0:8])
				if seq >= r.next[idx] {
					r.window.release(int64(seq - r.next[idx] + 1))
					r.next[idx] = seq + 1
				}
				r.check(idx, seq, p[16:], binary.BigEndian.Uint64(p[8:16])*cell.PayloadSize+16)
			case cell.Padding:
				// The target's "drop": a cell it could not serve rides back
				// rewritten. Not measurement data, not an error.
			default:
				return fmt.Errorf("wire: unexpected echo cell %v", cmd)
			}
		}
		if dataCells > 0 {
			r.credit(dataCells)
			r.received.Add(int64(dataCells))
		}
		if r.stop.Load() && r.received.Load() >= r.sent {
			return nil
		}
	}
}
