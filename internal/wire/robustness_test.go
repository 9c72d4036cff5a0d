package wire

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"flashflow/internal/cell"
)

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
	if err := ClientHandshake(conn, &msmtPlane, id); err != nil {
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
