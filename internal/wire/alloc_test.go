package wire

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flashflow/internal/cell"
)

// Zero-allocation guards for the multiplexed measurement data plane: 0
// allocs/cell on the encode, echo, and decode hot paths. Each test
// exercises the exact per-cell operations its wire path performs, minus
// the socket; TestWriterGatherZeroAllocs checks the one socket Write per
// send pass on its own, so together the guards pin the full per-cell cost.

// TestSenderAssemblyZeroAllocs covers one pass of the measurer's send
// loop on both planes: window credit for a whole write, the round-robin
// header (and, on the datagram plane, sequence) stamping over the
// zero-payload arena, the pacer, and the Write itself — here into an
// io.Writer that discards, in place of the socket.
func TestSenderAssemblyZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		udp   bool
		limit int
	}{{false, cell.SuperCells}, {true, udpDatagramCells}} {
		arena := cell.GetSuper()
		defer cell.PutSuper(arena)
		var pace pacer
		snd := newSender(io.Discard, &pace, *arena, batchCells(pace.quantumBits(), tc.limit), 8, tc.udp)
		window := newFlowWindow(maxWindowCells)
		if n := testing.AllocsPerRun(100, func() {
			if !window.tryAcquire(int64(snd.n)) {
				t.Fatal("window has no room for one write")
			}
			if err := snd.write(); err != nil {
				t.Fatal(err)
			}
			window.release(int64(snd.n))
		}); n != 0 {
			t.Fatalf("send pass (udp=%v): %v allocs per %d-cell write, want 0", tc.udp, n, snd.n)
		}
	}
}

// TestWriterGatherZeroAllocs covers the writer's hand-off to the socket.
// A pass's cells already sit contiguous in the sender's arena, so there
// is no vector to gather: the whole write is one Write of one slice. The
// guard runs that Write over a real loopback TCP connection, drained by a
// reader into a fixed buffer, so it pins the socket path the send loop
// uses and not a stand-in writer.
func TestWriterGatherZeroAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	arena := cell.GetSuper()
	defer cell.PutSuper(arena)
	var pace pacer
	snd := newSender(conn, &pace, *arena, cell.SuperCells, 8, false)
	if n := testing.AllocsPerRun(100, func() {
		if err := snd.write(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("writer path: %v allocs per %d-cell socket write, want 0", n, snd.n)
	}
	conn.Close()
	<-drained
}

// allocTestMux builds a muxState with nCirc live circuits for hot-path
// guards and fuzz targets, bypassing the handshake. Circuit id is keyed
// from testCircuitKeys(id).
func allocTestMux(tb testing.TB, nCirc int) *muxState {
	tb.Helper()
	ms := &muxState{t: &Target{}}
	for id := uint32(1); id <= uint32(nCirc); id++ {
		km := testCircuitKeys(id)
		st, err := cell.NewCryptoState(km.ForwardKey, km.ForwardIV)
		if err != nil {
			tb.Fatal(err)
		}
		ms.circuits.set(id, st)
	}
	return ms
}

// testCircuitKeys is the key material allocTestMux gives circuit id.
func testCircuitKeys(id uint32) cell.KeyMaterial {
	return cell.DeriveKeys([]byte{'c', byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)})
}

// TestTargetEchoPathZeroAllocs covers serveMux's per-batch work: demux
// with every data cell decrypted in place, over rotating circuit IDs.
func TestTargetEchoPathZeroAllocs(t *testing.T) {
	const nCirc = 8
	ms := allocTestMux(t, nCirc)
	batch := make([]byte, cell.BatchBytes)
	for i := 0; i < cell.BatchCells; i++ {
		cell.PutHeader(batch[i*cell.Size:], uint32(i%nCirc)+1, cell.MsmtData)
	}
	if n := testing.AllocsPerRun(100, func() {
		dataCells, err := ms.demuxTCP(batch)
		if err != nil {
			t.Fatal(err)
		}
		if dataCells != cell.BatchCells {
			t.Fatalf("demuxed %d data cells, want %d", dataCells, cell.BatchCells)
		}
	}); n != 0 {
		t.Fatalf("target echo path: %v allocs per %d-cell batch, want 0", n, cell.BatchCells)
	}
}

// TestUDPDatagramPathZeroAllocs covers the target's per-datagram work on
// the UDP plane: demux, per-cell decrypt, and the sequence/index stamping —
// everything serveUDPDatagram does between recvfrom and sendto.
func TestUDPDatagramPathZeroAllocs(t *testing.T) {
	const nCirc = 8
	ms := allocTestMux(t, nCirc)
	tgt := ms.t
	dg := make([]byte, udpDatagramBytes)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < udpDatagramCells; i++ {
			cell.PutHeader(dg[i*cell.Size:], uint32(i%nCirc)+1, cell.MsmtData)
		}
		if got := tgt.serveUDPDatagram(ms, dg); got != udpDatagramCells {
			t.Fatalf("served %d data cells, want %d", got, udpDatagramCells)
		}
	}); n != 0 {
		t.Fatalf("udp datagram path: %v allocs per %d-cell datagram, want 0", n, udpDatagramCells)
	}
}

// TestReaderDecodePathZeroAllocs covers the measurer's TCP echo reader,
// echoReader.readTCP itself: batched refill through cellReader, per-cell
// header demux, deterministic check sampling, keystream verification of
// the sampled cells, and the per-second credit and window release. Each
// run replays one batch of data cells followed by the circuit's MsmtEnd.
func TestReaderDecodePathZeroAllocs(t *testing.T) {
	km := testCircuitKeys(1)
	ks, err := cell.NewKeystream(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	script := make([]byte, (cell.BatchCells+1)*cell.Size)
	for i := 0; i < cell.BatchCells; i++ {
		cell.PutHeader(script[i*cell.Size:], 1, cell.MsmtData)
	}
	cell.PutHeader(script[cell.BatchCells*cell.Size:], 1, cell.MsmtEnd)
	src := bytes.NewReader(script)
	cr := newCellReader(src, make([]byte, cell.SuperBytes))
	var res MeasureResult
	buckets := make([]atomic.Uint64, 1)
	rd := newEchoReader([]*cell.Keystream{ks}, &res, buckets, time.Now(), newFlowWindow(maxWindowCells), 7, checkThreshold(0.05))
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(script)
		if err := rd.readTCP(cr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("reader decode path: %v allocs per %d-cell batch, want 0", n, cell.BatchCells)
	}
	if res.CellsChecked == 0 {
		t.Fatal("check sampling never fired; the guard did not cover the verify path")
	}
	// The script's zero payloads are not a real echo, so every sampled
	// cell must fail verification.
	if !res.Failed {
		t.Fatal("sampled cells with zero payloads passed verification")
	}
	if buckets[0].Load() == 0 {
		t.Fatal("no echoed bytes credited")
	}
}
