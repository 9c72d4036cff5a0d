package wire

import (
	"crypto/ed25519"
	"fmt"
	"sync"

	"flashflow/internal/cell"
)

// muxState is one connection's demux state, shared between the TCP serve
// loop and, when the measurer binds one, the UDP datagram loop. mu guards
// the circuit table and the UDP binding, and both loops decrypt while
// holding it. That costs no contention: once a UDP plane is bound, TCP
// data cells are a protocol error, so a circuit's crypto state is only
// ever driven from one loop.
type muxState struct {
	t   *Target
	pub ed25519.PublicKey

	mu       sync.Mutex
	circuits circTable
	udp      *udpSession
}

// errDataAfterUDPBind reports TCP measurement data arriving after the
// connection bound a UDP data plane. Allowing it would let the same
// circuit's sequential CryptoState be driven concurrently from both
// planes; an honest measurer sends data on exactly one.
var errDataAfterUDPBind = fmt.Errorf("wire: TCP measurement data after UDP bind")

// decrypt does the relay's §4.1 work on one data cell's payload: one
// step of the circuit's sequential forward cipher, exactly as Tor
// processes a cell. Both data planes call it, and it is the only place
// TargetConfig.Corrupt takes effect: a corrupt target skips the step and
// echoes the payload untouched.
func (t *Target) decrypt(st *cell.CryptoState, payload []byte) {
	if !t.cfg.Corrupt {
		st.ApplyBytes(payload)
	}
}

// demuxTCP routes and processes one batch of cells from the connection's
// TCP stream in place: data cells are decrypted where they lie, and
// control cells are handled inline — MsmtCreate answers the X25519
// handshake by rewriting the cell in place, MsmtEnd drops the circuit,
// MsmtUdp binds a datagram data plane. Returns the number of data cells.
//
// Data for an unknown (or torn-down) circuit, a duplicate MsmtCreate, an
// unauthorized create, and unexpected commands all kill the connection.
func (ms *muxState) demuxTCP(batch []byte) (int, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	dataCells := 0
	k := len(batch) / cell.Size
	for i := 0; i < k; i++ {
		off := i * cell.Size
		cb := batch[off : off+cell.Size]
		id := cell.CircIDOf(cb)
		switch cmd := cell.CommandOf(cb); cmd {
		case cell.MsmtData:
			st := ms.circuits.get(id)
			if st == nil {
				return 0, fmt.Errorf("target: data for unknown circuit %d", id)
			}
			if ms.udp != nil {
				return 0, errDataAfterUDPBind
			}
			ms.t.decrypt(st, cell.PayloadOf(cb))
			dataCells++
		case cell.MsmtCreate:
			if !ms.t.authorized(ms.pub) {
				return 0, errRevoked
			}
			if ms.circuits.len() >= maxConnCircuits {
				return 0, errTooManyCircuits
			}
			if ms.circuits.get(id) != nil {
				return 0, fmt.Errorf("target: duplicate circuit %d", id)
			}
			st, err := createCircuitCell(cb)
			if err != nil {
				return 0, err
			}
			ms.circuits.set(id, st)
		case cell.MsmtEnd:
			ms.circuits.del(id)
		case cell.MsmtUdp:
			if err := ms.bindUDPLocked(cb); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("target: unexpected cell %v", cmd)
		}
	}
	return dataCells, nil
}
