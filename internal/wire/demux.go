package wire

import (
	"crypto/ed25519"
	"fmt"
	"sync"

	"flashflow/internal/cell"
)

// Data-plane planes: a circuit's cells can arrive on the connection's TCP
// stream or, once an MsmtUdp bind succeeded, as datagrams. Span building
// tags per-circuit batch state by plane so the TCP demux loop and the UDP
// datagram loop — which run concurrently against one circuit table — never
// read each other's epoch/span markers.
const (
	planeTCP = 0
	planeUDP = 1
)

// circEntry is one live circuit's demux state: its forward crypto state
// and per-plane markers locating the circuit's span in the batch currently
// being demuxed. The CryptoState is sequential (the CTR position advances
// per cell), so its spans must be decrypted in stream order by one owner:
// the plane's serve loop, which demuxes and decrypts each batch inline.
type circEntry struct {
	st    *cell.CryptoState
	plane [2]spanMark
}

// spanMark locates a circuit's open span within the batch identified by
// epoch. A mark whose epoch differs from the batch being built is stale
// and means "no span yet in this batch".
type spanMark struct {
	epoch uint32
	idx   int32
}

// muxSpan is one circuit's slice of a batch: the cell-start offsets (into
// the batch buffer) of its cells, in stream order, plus the state that
// decrypts them.
type muxSpan struct {
	st   *cell.CryptoState
	offs []int32
}

// spanSet accumulates one batch's spans, reusing its backing storage
// across batches so span building allocates nothing in steady state. A
// spanSet belongs to exactly one demux loop (one plane); epochs it stamps
// into circEntry marks must be strictly increasing per plane.
type spanSet struct {
	plane int
	epoch uint32
	spans []muxSpan
	n     int
}

// reset opens a new batch with the given epoch (must exceed all previous
// epochs this plane used on the table's entries).
func (ss *spanSet) reset(epoch uint32) {
	ss.epoch = epoch
	ss.n = 0
}

// add appends a cell at byte offset off to e's span in the current batch,
// opening the span if this is the circuit's first cell of the batch.
func (ss *spanSet) add(e *circEntry, off int32) {
	m := &e.plane[ss.plane]
	if m.epoch == ss.epoch {
		sp := &ss.spans[m.idx]
		sp.offs = append(sp.offs, off)
		return
	}
	m.epoch = ss.epoch
	m.idx = int32(ss.n)
	if ss.n == len(ss.spans) {
		ss.spans = append(ss.spans, muxSpan{offs: make([]int32, 0, 64)})
	}
	sp := &ss.spans[ss.n]
	sp.st = e.st
	sp.offs = append(sp.offs[:0], off)
	ss.n++
}

// muxState is one connection's demux state, shared between the TCP serve
// loop and, when the measurer binds one, the UDP datagram loop. mu guards
// the circuit table and the UDP binding; the crypto states themselves are
// not guarded by it — single ownership is structural: each plane has one
// serve loop, and once a UDP plane is bound, TCP data cells are a protocol
// error, so a circuit's state is only ever driven from one loop.
type muxState struct {
	t   *Target
	pub ed25519.PublicKey

	mu       sync.Mutex
	circuits circTable
	epoch    uint32 // TCP-plane batch epoch
	udpEpoch uint32 // UDP-plane batch epoch
	udp      *udpSession
}

// errDataAfterUDPBind reports TCP measurement data arriving after the
// connection bound a UDP data plane. Allowing it would let the same
// circuit's sequential CryptoState be driven concurrently from both
// planes; an honest measurer sends data on exactly one.
var errDataAfterUDPBind = fmt.Errorf("wire: TCP measurement data after UDP bind")

// demuxTCP routes one batch of cells from the connection's TCP stream:
// data cells are appended to per-circuit spans (the caller decrypts them
// after), control cells are handled inline —
// MsmtCreate answers the X25519 handshake by rewriting the cell in place,
// MsmtEnd drops the circuit, MsmtUdp binds a datagram data plane. The
// batch epoch is advanced and spans is reset for this batch. Returns the
// number of data cells demuxed.
//
// Data for an unknown (or torn-down) circuit, a duplicate MsmtCreate, an
// unauthorized create, and unexpected commands all kill the connection.
func (ms *muxState) demuxTCP(batch []byte, spans *spanSet) (int, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.epoch++
	spans.plane = planeTCP
	spans.reset(ms.epoch)
	dataCells := 0
	k := len(batch) / cell.Size
	for i := 0; i < k; i++ {
		off := i * cell.Size
		cb := batch[off : off+cell.Size]
		id := cell.CircIDOf(cb)
		switch cmd := cell.CommandOf(cb); cmd {
		case cell.MsmtData:
			e := ms.circuits.get(id)
			if e == nil {
				return 0, fmt.Errorf("target: data for unknown circuit %d", id)
			}
			if ms.udp != nil {
				return 0, errDataAfterUDPBind
			}
			spans.add(e, int32(off))
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
			ms.circuits.set(id, &circEntry{st: st})
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
