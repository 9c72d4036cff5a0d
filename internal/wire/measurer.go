package wire

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flashflow/internal/cell"
)

// Dialer opens a connection to the target relay.
type Dialer func() (net.Conn, error)

// Session is optionally implemented by connections that outlive a single
// measurement, such as the pooled connections of internal/coord. Measure
// skips the identity handshake on a connection whose session is already
// authenticated (the target keeps the authentication for the life of the
// connection), and marks the session reusable only when the slot ends with
// the protocol in a clean state — every circuit's MsmtEnd echo fully
// drained — so a torn-down or desynchronized connection is never returned
// to a pool.
type Session interface {
	// Authenticated reports whether a previous measurement on this
	// connection already completed the identity handshake.
	Authenticated() bool
	// MarkAuthenticated records a completed identity handshake.
	MarkAuthenticated()
	// MarkReusable records that the measurement ended cleanly and the
	// connection can carry another measurement's circuits.
	MarkReusable()
}

// MeasureOptions configures one measurer's participation in a measurement
// slot.
type MeasureOptions struct {
	// Identity authenticates the measurer to the target.
	Identity Identity
	// Sockets is this measurer's socket share s/m (§4.1). The multiplexed
	// data plane realizes the share as that many concurrent measurement
	// circuits on a single authenticated connection, so the paper's
	// parallelism parameter is preserved while the kernel handles one
	// socket per measurer↔target pair.
	Sockets int
	// RateBps is the measurer's allocation a_i; the connection's one paced
	// send loop holds the aggregate to it.
	RateBps float64
	// Duration is the measurement slot length t.
	Duration time.Duration
	// CheckProb is the probability p of verifying an echoed cell's
	// contents (§4.1). Sampling is deterministic in (Seed, circuit, cell
	// sequence), so no sender-side record of checked cells is needed.
	CheckProb float64
	// Seed makes the check sampling reproducible.
	Seed int64
	// DialData, when set, moves the measurement data plane to datagrams:
	// it must open a connected packet socket (typically UDP) to the
	// target's data listener. Control — authentication, circuit creation,
	// teardown — stays on the dialed connection; only MsmtData cells and
	// their echoes travel on the data socket. The result then also carries
	// the loss accounting (SentCells/LostCells).
	DialData Dialer
	// OnSecond, when set, is called once per completed wall-clock second
	// of the slot, in order, with this measurer's echoed bytes during that
	// second — one call per entry of PerSecondBytes (only the elapsed
	// ones if the slot failed). While the slot runs, the callback runs on
	// a dedicated goroutine; the seconds that goroutine had not reached
	// when the slot ended follow from Measure's own goroutine before it
	// returns, never concurrently. It must return quickly. It is a live
	// view — cells still in flight at the second boundary land in the
	// authoritative PerSecondBytes of the final MeasureResult.
	OnSecond func(second int, bytes float64)
}

// MeasureResult is one measurer's view of a slot.
type MeasureResult struct {
	// PerSecondBytes[j] is the number of measurement bytes echoed back
	// during second j. Truncated to the completed seconds when the slot
	// was cancelled mid-way.
	PerSecondBytes []float64
	// CellsChecked counts echoed cells whose content was verified.
	CellsChecked int
	// Failed is set when any checked echo had wrong contents; the BWAuth
	// discards the measurement (§4.1).
	Failed bool
	// SentCells is the number of measurement cells put on the wire; only
	// set on the datagram data plane (DialData), where cells can be lost.
	SentCells int64
	// LostCells is how many sent cells never echoed back — the datagram
	// plane's loss signal. Always zero on TCP, where the transport
	// retransmits instead.
	LostCells int64
}

// maxCircuits caps the concurrent circuits one measurement multiplexes on
// a connection. Past a couple hundred, more circuits add per-circuit state
// without adding pipeline depth; a socket share larger than the cap is
// clamped rather than rejected.
const maxCircuits = cell.SuperCells

// inflightWindow is the per-circuit contribution to the connection's
// in-flight cell window, as the paper's clients take "care not to overflow
// circuit queue length limits" (§3.4). Without a window, a fast sender
// buries a slower target in kernel buffers and the slot cannot drain
// cleanly. A small multiple of the batch size keeps batching from starving
// the pipeline, and even a one-circuit window must hold the send loop's
// largest write (cell.SuperCells), which takes its credit all at once.
const inflightWindow = 8 * cell.BatchCells

// maxWindowCells caps the aggregate window across all circuits (~1 MiB in
// flight): beyond that, deeper pipelining only adds drain time.
const maxWindowCells = 2048

// Measure runs one measurer's side of a measurement slot: it opens one
// connection, authenticates, multiplexes opts.Sockets measurement circuits
// onto it, then streams MsmtData cells as fast as the rate allows — one
// paced send loop, each pass a single Write of up to a super-batch of
// cells — while one reader demultiplexes the echo stream by circuit ID and
// spot-verifies contents with probability p.
//
// Cancelling ctx tears the slot down promptly: the connection is closed
// (and, when ctx carries a deadline, the connection also wears that
// deadline), the send/recv goroutines exit, and Measure returns the
// per-second bytes of the seconds completed before cancellation together
// with ctx.Err().
func Measure(ctx context.Context, dial Dialer, opts MeasureOptions) (MeasureResult, error) {
	if opts.Sockets <= 0 {
		return MeasureResult{}, errors.New("wire: need at least one socket")
	}
	if opts.Duration <= 0 {
		return MeasureResult{}, errors.New("wire: nonpositive duration")
	}
	seconds := int(math.Ceil(opts.Duration.Seconds()))
	nCirc := opts.Sockets
	if nCirc > maxCircuits {
		nCirc = maxCircuits
	}

	// Every circuit accumulates into one shared set of per-second buckets,
	// updated with atomic adds so the echo loop stays lock- and
	// allocation-free while the streamer goroutine below can observe
	// completed seconds concurrently.
	buckets := make([]atomic.Uint64, seconds)
	start := time.Now()

	done := make(chan struct{})
	var streamWG sync.WaitGroup
	streamed := 0
	if opts.OnSecond != nil {
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			streamed = streamSeconds(ctx, done, start, buckets, opts.OnSecond)
		}()
	}

	res, err := measureConn(ctx, dial, opts, nCirc, start, buckets)
	close(done)
	streamWG.Wait()

	completed := seconds
	ctxErr := ctx.Err()
	if dl, ok := ctx.Deadline(); ctxErr == nil && err != nil && ok && !time.Now().Before(dl) {
		// The connection wears ctx's deadline, and its timer can fire
		// before ctx's own: a slot the deadline tore down is a cancelled
		// slot even if ctx has not noticed yet.
		ctxErr = context.DeadlineExceeded
	}
	if ctxErr != nil {
		// Normalize the teardown errors (closed connections, expired
		// deadlines) to the context's own error, and report only the fully
		// elapsed seconds.
		err = ctxErr
		completed = int(time.Since(start) / time.Second)
		if completed > seconds {
			completed = seconds
		}
	}
	res.PerSecondBytes = make([]float64, completed)
	for j := 0; j < completed; j++ {
		res.PerSecondBytes[j] = float64(buckets[j].Load())
	}
	// The streamer stops as soon as the slot ends, usually before the
	// last second's flush boundary: hand the completed seconds it did not
	// reach to the callback now, so the live stream ends with the slot
	// instead of a second later. A slot that failed early still never
	// streams a second that had not elapsed.
	if opts.OnSecond != nil {
		tail := completed
		if err != nil {
			tail = min(tail, int(time.Since(start)/time.Second))
		}
		for j := streamed; j < tail; j++ {
			opts.OnSecond(j, res.PerSecondBytes[j])
		}
	}
	return res, err
}

// streamSeconds delivers each completed second's byte count to onSecond
// and returns how many seconds it delivered. It waits slightly past every
// second boundary so late atomic adds from the reader goroutine are
// included, and stops as soon as the slot is done or the context is
// cancelled — an interrupted slot never streams a second it did not
// complete. Measure delivers the rest of the completed seconds.
const streamFlushSlack = 20 * time.Millisecond

func streamSeconds(ctx context.Context, done <-chan struct{}, start time.Time, buckets []atomic.Uint64, onSecond func(int, float64)) int {
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for j := range buckets {
		boundary := start.Add(time.Duration(j+1)*time.Second + streamFlushSlack)
		timer.Reset(time.Until(boundary))
		select {
		case <-timer.C:
		case <-ctx.Done():
			return j
		case <-done:
			return j
		}
		onSecond(j, float64(buckets[j].Load()))
	}
	return len(buckets)
}

// flowWindow bounds the un-echoed cells in flight on a connection: the
// send loop takes credit, the echo reader returns it, and release wakes
// the send loop when it is blocked on a full window.
type flowWindow struct {
	capacity int64
	inflight atomic.Int64
	wake     chan struct{}
}

func newFlowWindow(capacity int64) *flowWindow {
	return &flowWindow{capacity: capacity, wake: make(chan struct{}, 1)}
}

// tryAcquire takes n in-flight slots if all n are free and reports whether
// it did. The send loop is the only acquirer and the reader only frees
// slots, so the room the check sees cannot shrink before the add. The
// capacity must be at least n, or the sender waits forever.
func (w *flowWindow) tryAcquire(n int64) bool {
	if w.capacity-w.inflight.Load() < n {
		return false
	}
	w.inflight.Add(n)
	return true
}

// release returns n slots and wakes the send loop. The wake channel holds
// one token, so a release that lands between a failed tryAcquire and the
// wait is not lost.
func (w *flowWindow) release(n int64) {
	w.inflight.Add(-n)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// checkSampled reports whether the cell (circID, seq) is spot-checked: a
// stateless uniform hash of the measurement seed and the cell's identity
// against a threshold derived from CheckProb. Deterministic sampling keeps
// the check decision out of the send path entirely — the old shared
// digest queue cost a mutex and an append per checked cell, which was the
// per-cell heap traffic the team benchmark showed.
func checkSampled(seed uint64, circID uint32, seq, threshold uint64) bool {
	x := seed ^ uint64(circID)*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x < threshold
}

// checkThreshold converts a check probability to the hash threshold used
// by checkSampled.
func checkThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * float64(math.MaxUint64))
}

// sender is a measurement's paced send loop state. Each write carries the
// next n cells of a strict round-robin over the circuits. Measurement
// cells travel with all-zero payloads, so the arena's payloads are zeroed
// once and a write rewrites only the 5-byte headers (and, on the datagram
// plane, the send sequence). The proof of work stays with the target:
// decrypting a zero payload materializes its forward keystream, which is
// exactly what the reader verifies.
type sender struct {
	w     io.Writer
	pace  *pacer
	arena []byte // n cells, payloads zero
	n     int    // cells per write
	nCirc int64
	udp   bool
	sent  int64 // cells written so far
}

func newSender(w io.Writer, pace *pacer, arena []byte, n, nCirc int, udp bool) *sender {
	arena = arena[:n*cell.Size]
	clear(arena)
	return &sender{w: w, pace: pace, arena: arena, n: n, nCirc: int64(nCirc), udp: udp}
}

// write stamps the next n cells, waits for the pacer, and sends them with
// one Write — on the datagram plane, one datagram. The caller holds window
// credit for the n cells.
func (s *sender) write() error {
	for i := 0; i < s.n; i++ {
		c := s.sent + int64(i)
		cb := s.arena[i*cell.Size:]
		cell.PutHeader(cb, uint32(c%s.nCirc)+1, cell.MsmtData)
		if s.udp {
			// Strict round-robin makes the circuit's send sequence
			// derivable from the cell count; the datagram plane carries it
			// in the clear so the echo survives loss and reordering (see
			// udp.go).
			binary.BigEndian.PutUint64(cb[5:], uint64(c/s.nCirc))
		}
	}
	s.pace.wait(float64(len(s.arena) * 8))
	if _, err := s.w.Write(s.arena); err != nil {
		return fmt.Errorf("send cells: %w", err)
	}
	s.sent += int64(s.n)
	return nil
}

// measureConn drives one multiplexed measurement connection.
func measureConn(ctx context.Context, dial Dialer, opts MeasureOptions, nCirc int, start time.Time, buckets []atomic.Uint64) (MeasureResult, error) {
	var res MeasureResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	conn, err := dial()
	if err != nil {
		return res, fmt.Errorf("dial: %w", err)
	}
	// Every teardown path — normal return, abort, and the cancellation
	// watcher below — funnels through one sync.Once: a pooled connection's
	// Close parks it for reuse, and racing the context watcher against the
	// deferred close could otherwise park the same connection twice and
	// hand it to two concurrent measurements later. The UDP data socket,
	// adopted after setup, rides the same teardown; the mutex closes the
	// adopt-vs-cancel race so a socket dialed while the watcher fires is
	// closed by whichever side runs second.
	var closeOnce sync.Once
	var closeMu sync.Mutex
	var connClosed bool
	var dataConn net.Conn
	closeConn := func() {
		closeOnce.Do(func() {
			closeMu.Lock()
			connClosed = true
			dc := dataConn
			closeMu.Unlock()
			conn.Close()
			if dc != nil {
				dc.Close()
			}
		})
	}
	defer closeConn()

	// Cancellation plumbing: closing the connection is what actually
	// unblocks the send/recv loops, so hook it straight to the context;
	// a context deadline additionally becomes a connection deadline so a
	// wedged peer cannot stall the slot past its budget even while the
	// context itself is still alive.
	stopWatch := context.AfterFunc(ctx, closeConn)
	defer stopWatch()
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}

	sess, _ := conn.(Session)
	if sess == nil || !sess.Authenticated() {
		if err := ClientHandshake(conn, &msmtPlane, opts.Identity); err != nil {
			return res, err
		}
		if sess != nil {
			sess.MarkAuthenticated()
		}
	}

	readBuf := cell.GetSuper()
	defer cell.PutSuper(readBuf)
	cr := newCellReader(conn, *readBuf)
	// One arena carries every cell this goroutine writes: the MsmtCreate
	// batches, the send loop's data and the MsmtEnd teardown, in turn.
	arena := cell.GetSuper()
	defer cell.PutSuper(arena)

	circs, err := createCircuits(conn, cr, nCirc, *arena)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return res, ctxErr
		}
		return res, err
	}

	// Datagram data plane: bind over the control connection, then swap the
	// data path's writer and echo reader. Control traffic keeps using conn
	// and cr throughout.
	udp := opts.DialData != nil
	var dataW io.Writer = conn
	if udp {
		dc, err := setupUDP(conn, cr, opts.DialData)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, err
		}
		closeMu.Lock()
		if connClosed {
			closeMu.Unlock()
			dc.Close()
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, net.ErrClosed
		}
		dataConn = dc
		closeMu.Unlock()
		if dl, ok := ctx.Deadline(); ok {
			_ = dc.SetDeadline(dl)
		}
		dataW = dc
	}

	deadline := start.Add(opts.Duration)
	windowCap := int64(inflightWindow) * int64(nCirc)
	if windowCap > maxWindowCells {
		windowCap = maxWindowCells
	}
	window := newFlowWindow(windowCap)

	// Reader: demultiplex the echo stream by circuit ID, verifying sampled
	// cells against each circuit's forward keystream. It owns
	// res.CellsChecked/Failed until readerExit closes.
	rd := newEchoReader(circs, &res, buckets, start, window, uint64(opts.Seed), checkThreshold(opts.CheckProb))
	readerExit := make(chan struct{})
	var readerErr error
	go func() {
		defer close(readerExit)
		if udp {
			readerErr = rd.readUDP(dataConn)
		} else {
			readerErr = rd.readTCP(cr)
		}
	}()

	// abort tears the connection down and waits for the reader so that no
	// goroutine still writes to res when we return it.
	abort := func(e error) (MeasureResult, error) {
		closeConn()
		<-readerExit
		if ctxErr := ctx.Err(); ctxErr != nil {
			e = ctxErr
		}
		return res, e
	}

	// Sender: this goroutine is the connection's one paced exit point for
	// measurement cells. Each pass takes window credit for a whole write,
	// or waits for the reader to return some.
	var pace pacer
	pace.rateBps = opts.RateBps
	limit := cell.SuperCells
	if udp {
		limit = udpDatagramCells
	}
	snd := newSender(dataW, &pace, *arena, batchCells(pace.quantumBits(), limit), nCirc, udp)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := time.Now()
		if !now.Before(deadline) || ctx.Err() != nil {
			break
		}
		if window.tryAcquire(int64(snd.n)) {
			if err := snd.write(); err != nil {
				return abort(err)
			}
			continue
		}
		timer.Reset(deadline.Sub(now))
		select {
		case <-window.wake:
		case <-timer.C:
		case <-ctx.Done():
		case <-readerExit:
			return abort(readerErr)
		}
	}
	if err := ctx.Err(); err != nil {
		return abort(err)
	}

	if udp {
		// MsmtEnd travels on the control plane, which can outrun in-flight
		// datagrams on the data socket and tear circuits down under their
		// own tail; drain the echo stream before ending.
		waitUDPDrain(ctx, snd.sent, &rd.received)
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
	}

	// End every circuit and wait for the echo stream to drain.
	out := *arena
	for i := 0; i < nCirc; i++ {
		cb := out[i*cell.Size:]
		cell.PutHeader(cb, uint32(i)+1, cell.MsmtEnd)
		clear(cell.PayloadOf(cb))
	}
	if _, err := conn.Write(out[:nCirc*cell.Size]); err != nil {
		return abort(fmt.Errorf("send end: %w", err))
	}
	if udp {
		// The End echoes come back on the control stream, which the UDP
		// echo reader never touches; collect them here, then release the
		// reader — immediately when every echo arrived, after a short
		// linger for stragglers when some are missing.
		for got := 0; got < nCirc; got++ {
			cb, err := cr.next()
			if err != nil {
				return abort(fmt.Errorf("read end echo: %w", err))
			}
			if cmd := cell.CommandOf(cb); cmd != cell.MsmtEnd {
				return abort(fmt.Errorf("wire: unexpected end echo %v", cmd))
			}
		}
		rd.sent = snd.sent
		rd.stop.Store(true)
		lingerUntil := time.Now()
		if rd.received.Load() < rd.sent {
			lingerUntil = lingerUntil.Add(udpLingerGrace)
		}
		_ = dataConn.SetReadDeadline(lingerUntil)
		<-readerExit
		res.SentCells = snd.sent
		if lost := snd.sent - rd.received.Load(); lost > 0 {
			res.LostCells = lost
		}
		if readerErr != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, readerErr
		}
		// The connection keeps its UDP binding for its whole life (the
		// bind is once per connection), so it cannot host a second
		// measurement: never mark it reusable.
		return res, nil
	}
	drainTimer := time.NewTimer(5 * time.Second)
	defer drainTimer.Stop()
	select {
	case <-readerExit:
		if readerErr != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, readerErr
		}
	case <-ctx.Done():
		return abort(ctx.Err())
	case <-drainTimer.C:
		return abort(errors.New("wire: timed out draining echo stream"))
	}
	if sess != nil {
		sess.MarkReusable()
	}
	return res, nil
}

// createCircuits establishes nCirc measurement circuits in-band: one
// MsmtCreate cell per circuit carrying a fresh X25519 public key, shipped
// in batched writes of up to SuperCells cells assembled in out (a super
// arena the caller owns) and answered by the target's MsmtCreated
// rewrites. It returns each circuit's forward keystream — the
// random-access view the reader verifies sampled echoes against.
func createCircuits(w io.Writer, cr *cellReader, nCirc int, out []byte) ([]*cell.Keystream, error) {
	curve := ecdh.X25519()
	privs := make([]*ecdh.PrivateKey, nCirc)
	for sent := 0; sent < nCirc; {
		n := min(cell.SuperCells, nCirc-sent)
		for i := 0; i < n; i++ {
			priv, err := curve.GenerateKey(rand.Reader)
			if err != nil {
				return nil, fmt.Errorf("circuit keygen: %w", err)
			}
			privs[sent+i] = priv
			cb := out[i*cell.Size:]
			cell.PutHeader(cb, uint32(sent+i)+1, cell.MsmtCreate)
			p := cell.PayloadOf(cb)
			copy(p[:32], priv.PublicKey().Bytes())
			clear(p[32:])
		}
		if _, err := w.Write(out[:n*cell.Size]); err != nil {
			return nil, fmt.Errorf("send create: %w", err)
		}
		sent += n
	}
	ks := make([]*cell.Keystream, nCirc)
	for got := 0; got < nCirc; got++ {
		cb, err := cr.next()
		if err != nil {
			return nil, fmt.Errorf("read created: %w", err)
		}
		if cmd := cell.CommandOf(cb); cmd != cell.MsmtCreated {
			return nil, fmt.Errorf("wire: expected MSMT_CREATED, got %v", cmd)
		}
		idx := int(cell.CircIDOf(cb)) - 1
		if idx < 0 || idx >= nCirc || ks[idx] != nil {
			return nil, errors.New("wire: bad circuit id in MSMT_CREATED")
		}
		peer, err := curve.NewPublicKey(append(make([]byte, 0, 32), cell.PayloadOf(cb)[:32]...))
		if err != nil {
			return nil, fmt.Errorf("peer circuit key: %w", err)
		}
		shared, err := privs[idx].ECDH(peer)
		if err != nil {
			return nil, fmt.Errorf("circuit ecdh: %w", err)
		}
		secret := sha256.Sum256(shared)
		km := cell.DeriveKeys(secret[:])
		k, err := cell.NewKeystream(km.ForwardKey, km.ForwardIV)
		if err != nil {
			return nil, err
		}
		ks[idx] = k
	}
	return ks, nil
}

// echoReader is one measurement's echo verifier: the state both data
// planes' read loops share. Cells travel with zero payloads, so an honest
// target's echo of circuit cell k is exactly the forward keystream at
// offset k·PayloadSize — anything else (a target skipping its decrypt
// work, §5) fails verification. The reader goroutine owns next and res's
// check fields until it exits; sent is written by the sender before it
// sets stop, and read by the reader only after it sees stop.
type echoReader struct {
	circs     []*cell.Keystream
	next      []uint64 // per circuit: the next send sequence expected
	res       *MeasureResult
	buckets   []atomic.Uint64
	start     time.Time
	window    *flowWindow
	seed      uint64
	threshold uint64

	// Datagram plane only: received counts the data cells echoed so far;
	// the sender sets sent and then stop once the MsmtEnd exchange on the
	// control plane completes.
	received atomic.Int64
	sent     int64
	stop     atomic.Bool
}

func newEchoReader(circs []*cell.Keystream, res *MeasureResult, buckets []atomic.Uint64, start time.Time, window *flowWindow, seed, threshold uint64) *echoReader {
	return &echoReader{circs: circs, next: make([]uint64, len(circs)), res: res, buckets: buckets,
		start: start, window: window, seed: seed, threshold: threshold}
}

// circuit returns the 0-based index of the circuit an echoed cell belongs
// to, rejecting IDs this measurement never created.
func (r *echoReader) circuit(cb []byte) (int, error) {
	idx := int(cell.CircIDOf(cb)) - 1
	if idx < 0 || idx >= len(r.circs) {
		return 0, fmt.Errorf("wire: echo for unknown circuit %d", idx+1)
	}
	return idx, nil
}

// check spot-checks one echoed data cell with probability p (§4.1): the
// sampling decision is a hash of (seed, circuit, seq), and a sampled
// payload must equal the circuit's forward keystream at byte offset off.
func (r *echoReader) check(idx int, seq uint64, payload []byte, off uint64) {
	if r.threshold > 0 && checkSampled(r.seed, uint32(idx)+1, seq, r.threshold) {
		r.res.CellsChecked++
		if !r.circs[idx].VerifyAt(payload, off) {
			r.res.Failed = true
		}
	}
}

// credit books n echoed data cells into the current second's bucket.
func (r *echoReader) credit(n int) {
	idx := int(time.Since(r.start) / time.Second)
	if idx >= 0 && idx < len(r.buckets) {
		r.buckets[idx].Add(uint64(n) * cell.Size)
	}
}

// readTCP consumes the TCP echo stream: large refills through the
// cellReader and per-cell demux by circuit ID. The stream is in order, so
// a cell's sequence is its position on its circuit; window credit returns
// once per batch. It returns nil once every circuit's MsmtEnd echo
// arrived.
func (r *echoReader) readTCP(cr *cellReader) error {
	remaining := len(r.circs)
	for {
		batch, err := cr.nextBatch()
		if err != nil {
			return fmt.Errorf("read echo: %w", err)
		}
		data := 0
		for off := 0; off < len(batch) && remaining > 0; off += cell.Size {
			cb := batch[off : off+cell.Size]
			switch cmd := cell.CommandOf(cb); cmd {
			case cell.MsmtData:
				idx, err := r.circuit(cb)
				if err != nil {
					return err
				}
				seq := r.next[idx]
				r.next[idx]++
				data++
				r.check(idx, seq, cell.PayloadOf(cb), seq*cell.PayloadSize)
			case cell.MsmtEnd:
				remaining--
			default:
				return fmt.Errorf("wire: unexpected echo cell %v", cmd)
			}
		}
		if data > 0 {
			r.credit(data)
			r.window.release(int64(data))
		}
		if remaining == 0 {
			return nil
		}
	}
}
