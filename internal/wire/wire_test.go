package wire

import (
	"context"
	"net"
	"testing"
	"time"

	"flashflow/internal/core"
)

const mbit = 1e6

// startTarget launches a target on a local TCP listener and returns its
// address and a cleanup func.
func startTarget(t *testing.T, cfg TargetConfig, allowed ...Identity) (string, *Target, func()) {
	t.Helper()
	tgt := NewTarget(cfg)
	for _, id := range allowed {
		tgt.Authorize(id.Pub)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tgt.Serve(l)
	return l.Addr().String(), tgt, func() {
		l.Close()
		tgt.Close()
	}
}

func tcpDialer(addr string) Dialer {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func TestMeasureHonestTargetEchoesAtRate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement slots")
	}
	id, _ := NewIdentity()
	const rate = 16 * mbit
	addr, _, cleanup := startTarget(t, TargetConfig{RateBps: rate}, id)
	defer cleanup()

	res, err := Measure(context.Background(), tcpDialer(addr), MeasureOptions{
		Identity:  id,
		Sockets:   4,
		RateBps:   64 * mbit, // demand well above the target's limit
		Duration:  2 * time.Second,
		CheckProb: 0.05,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("honest target must pass echo checks")
	}
	if res.CellsChecked == 0 {
		t.Fatal("expected some cells to be checked at p=0.05")
	}
	var total float64
	for _, b := range res.PerSecondBytes {
		total += b
	}
	gotRate := total * 8 / 2
	if gotRate < rate*0.6 || gotRate > rate*1.3 {
		t.Fatalf("echo rate: got %.1f Mbit/s want ≈%.0f", gotRate/mbit, rate/mbit)
	}
}

func TestMeasureDetectsCorruptTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement slots")
	}
	id, _ := NewIdentity()
	addr, _, cleanup := startTarget(t, TargetConfig{RateBps: 16 * mbit, Corrupt: true}, id)
	defer cleanup()

	res, err := Measure(context.Background(), tcpDialer(addr), MeasureOptions{
		Identity:  id,
		Sockets:   2,
		RateBps:   16 * mbit,
		Duration:  1 * time.Second,
		CheckProb: 0.2, // check aggressively to catch it within one second
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("corrupt target must fail echo verification")
	}
}

func TestMeasureRejectedWithoutAuthorization(t *testing.T) {
	id, _ := NewIdentity()
	addr, _, cleanup := startTarget(t, TargetConfig{}) // nobody authorized
	defer cleanup()
	_, err := Measure(context.Background(), tcpDialer(addr), MeasureOptions{
		Identity: id,
		Sockets:  1,
		RateBps:  mbit,
		Duration: time.Second,
		Seed:     3,
	})
	if err == nil {
		t.Fatal("unauthorized measurer should fail")
	}
}

func TestMeasureOptionValidation(t *testing.T) {
	id, _ := NewIdentity()
	if _, err := Measure(context.Background(), tcpDialer("x"), MeasureOptions{Identity: id, Sockets: 0, Duration: time.Second}); err == nil {
		t.Fatal("zero sockets should error")
	}
	if _, err := Measure(context.Background(), tcpDialer("x"), MeasureOptions{Identity: id, Sockets: 1, Duration: 0}); err == nil {
		t.Fatal("zero duration should error")
	}
}

func TestTargetRevoke(t *testing.T) {
	id, _ := NewIdentity()
	addr, tgt, cleanup := startTarget(t, TargetConfig{RateBps: 8 * mbit}, id)
	defer cleanup()
	tgt.Revoke()
	_, err := Measure(context.Background(), tcpDialer(addr), MeasureOptions{
		Identity: id, Sockets: 1, RateBps: mbit, Duration: time.Second, Seed: 4,
	})
	if err == nil {
		t.Fatal("revoked key should be rejected")
	}
}

func TestTargetCountsForwardedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement slots")
	}
	id, _ := NewIdentity()
	addr, tgt, cleanup := startTarget(t, TargetConfig{RateBps: 8 * mbit}, id)
	defer cleanup()
	res, err := Measure(context.Background(), tcpDialer(addr), MeasureOptions{
		Identity: id, Sockets: 1, RateBps: 8 * mbit, Duration: time.Second, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var echoed float64
	for _, b := range res.PerSecondBytes {
		echoed += b
	}
	var forwarded float64
	for _, b := range tgt.ForwardedBytesPerSecond() {
		forwarded += b
	}
	if forwarded < echoed {
		t.Fatalf("target forwarded (%v) < measurer received (%v)", forwarded, echoed)
	}
}

func TestWireBackendEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement slots")
	}
	// Full pipeline: core.MeasureRelay over the real wire protocol
	// against a 12 Mbit/s-limited target with a 2-measurer team.
	ids := make([]Identity, 2)
	for i := range ids {
		ids[i], _ = NewIdentity()
	}
	const rate = 12 * mbit
	addr, _, cleanup := startTarget(t, TargetConfig{RateBps: rate}, ids...)
	defer cleanup()

	members := make([]Member, 2)
	for i := range members {
		id := ids[i]
		members[i] = Member{
			Identity: id,
			Dial:     func(string) Dialer { return tcpDialer(addr) },
		}
	}
	backend := &Backend{Members: members, CheckProb: 0.01, Seed: 9}

	p := core.DefaultParams()
	p.SlotSeconds = 2
	p.Sockets = 8
	team := []*core.Measurer{
		{Name: "m0", CapacityBps: 40 * mbit, Cores: 2},
		{Name: "m1", CapacityBps: 40 * mbit, Cores: 2},
	}
	out, err := core.MeasureRelay(context.Background(), backend, team, "t", rate, p)
	if err != nil {
		t.Fatal(err)
	}
	rel := out.EstimateBps / rate
	if rel < 0.5 || rel > 1.4 {
		t.Fatalf("wire end-to-end estimate: rel=%v (est %.1f Mbit/s)", rel, out.EstimateBps/mbit)
	}
}

func TestBackendAllocationMismatch(t *testing.T) {
	backend := &Backend{Members: []Member{}}
	alloc := core.Allocation{PerMeasurerBps: []float64{1}}
	if _, err := backend.RunMeasurement(context.Background(), "t", alloc, 1, nil); err == nil {
		t.Fatal("mismatched team should error")
	}
}
