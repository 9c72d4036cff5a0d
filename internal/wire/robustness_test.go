package wire

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"flashflow/internal/cell"
)

// Property: ReadFrame never panics or over-reads on arbitrary byte
// streams; it either returns a frame consistent with the input or an
// error.
func TestReadFrameFuzzQuick(t *testing.T) {
	f := func(data []byte) bool {
		r := bytes.NewReader(data)
		ft, payload, err := ReadFrame(r)
		if err != nil {
			return true // malformed input must error, not panic
		}
		// A successful parse implies the header described the payload.
		return len(payload) <= maxFramePayload && ft != 0 || ft == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: WriteFrame → ReadFrame round-trips arbitrary payloads up to
// the cap.
func TestFrameRoundTripQuick(t *testing.T) {
	f := func(ft uint8, payload []byte) bool {
		if len(payload) > maxFramePayload {
			payload = payload[:maxFramePayload]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FrameType(ft), payload); err != nil {
			return false
		}
		gotType, gotPayload, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return gotType == FrameType(ft) && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTargetRejectsGarbageHandshake(t *testing.T) {
	id, _ := NewIdentity()
	addr, _, cleanup := startTarget(t, TargetConfig{RateBps: 8 * mbit}, id)
	defer cleanup()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Read the nonce, then send garbage instead of an Auth frame.
	nonce := make([]byte, nonceLen)
	if _, err := io.ReadFull(conn, nonce); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(bytes.Repeat([]byte{0xff}, 64)); err != nil {
		t.Fatal(err)
	}
	// The target must reject and close; reading should terminate quickly.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // closed or rejected — both fine
		}
	}
}

func TestTargetHandlesAbruptDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement slots")
	}
	id, _ := NewIdentity()
	addr, tgt, cleanup := startTarget(t, TargetConfig{RateBps: 8 * mbit}, id)
	defer cleanup()

	// Authenticate, set up a circuit, send part of a data cell, then slam
	// the connection shut mid-cell. The target must survive and keep
	// serving new measurements.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := clientAuthenticate(conn, id); err != nil {
		t.Fatal(err)
	}
	cr := newCellReader(conn, make([]byte, cell.BatchBytes))
	if _, err := createCircuits(conn, cr, 1, make([]byte, cell.SuperBytes)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, cell.Size)
	cell.PutHeader(out, 1, cell.MsmtData)
	if _, err := conn.Write(out[:cell.Size/2]); err != nil { // half a cell
		t.Fatal(err)
	}
	conn.Close()

	// A fresh, well-behaved measurement still works.
	res, err := Measure(context.Background(), tcpDialer(addr), MeasureOptions{
		Identity: id, Sockets: 1, RateBps: 4 * mbit, Duration: time.Second, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("clean measurement after abrupt disconnect should pass")
	}
	_ = tgt
}

func TestConcurrentMeasurersShareTargetRate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement slots")
	}
	// Two measurers with distinct identities measuring simultaneously:
	// the target's pacer splits its rate between them; the sum should be
	// near the configured rate, not double it.
	idA, _ := NewIdentity()
	idB, _ := NewIdentity()
	const rate = 16 * mbit
	addr, _, cleanup := startTarget(t, TargetConfig{RateBps: rate}, idA, idB)
	defer cleanup()

	var wg sync.WaitGroup
	results := make([]MeasureResult, 2)
	errs := make([]error, 2)
	for i, id := range []Identity{idA, idB} {
		wg.Add(1)
		go func(idx int, ident Identity) {
			defer wg.Done()
			results[idx], errs[idx] = Measure(context.Background(), tcpDialer(addr), MeasureOptions{
				Identity: ident, Sockets: 2, RateBps: 32 * mbit,
				Duration: 2 * time.Second, Seed: int64(20 + idx),
			})
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("measurer %d: %v", i, err)
		}
	}
	var total float64
	for _, r := range results {
		for _, b := range r.PerSecondBytes {
			total += b
		}
	}
	gotRate := total * 8 / 2
	if gotRate > rate*1.4 {
		t.Fatalf("combined echo rate %v exceeds target rate %v", gotRate, rate)
	}
	if gotRate < rate*0.4 {
		t.Fatalf("combined echo rate %v too far below target rate %v", gotRate, rate)
	}
}

func TestIdentityUniqueness(t *testing.T) {
	a, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Pub, b.Pub) {
		t.Fatal("identities should be unique")
	}
}
