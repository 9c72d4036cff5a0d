package wire

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"flashflow/internal/cell"
)

// Pooled-buffer discipline tests: every error path must return its pooled
// arenas. The cell package counts pool gets and puts; a session that ends
// — however it ends — must leave the counters balanced, or the pool
// slowly bleeds 128 KiB arenas under real-world connection churn. These
// tests rely on the package's tests running sequentially (none call
// t.Parallel), so the global counters see only their own session.

// poolBalanced runs fn between two pool snapshots and fails the test if
// any super arenas leaked.
func poolBalanced(t *testing.T, name string, fn func()) {
	t.Helper()
	before := cell.ReadPoolStats()
	fn()
	after := cell.ReadPoolStats()
	if n := after.Outstanding(before); n != 0 {
		t.Fatalf("%s leaked pooled buffers: %d super arenas outstanding", name, n)
	}
}

// runMuxErrorSession drives one target connection into a demux error
// (data for an unknown circuit) and waits for full teardown.
func runMuxErrorSession(t *testing.T) {
	t.Helper()
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewTarget(TargetConfig{})
	tgt.Authorize(id.Pub)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handleErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			handleErr <- err
			return
		}
		handleErr <- tgt.HandleConn(conn)
	}()
	c := dialMuxClient(t, l.Addr().String(), id, 2)
	if _, err := c.conn.Write(dataBatch([]uint32{1, 2, 99})); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case err := <-handleErr:
		if err == nil || !strings.Contains(err.Error(), "unknown circuit") {
			t.Fatalf("HandleConn error = %v, want unknown-circuit", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("target did not reject unknown circuit")
	}
	c.conn.Close()
	l.Close()
	tgt.Close() // joins every handler before the pool snapshot
}

// runMuxAbruptClose streams some data, then yanks the client connection
// mid-stream — the everyday teardown a target sees constantly.
func runMuxAbruptClose(t *testing.T) {
	t.Helper()
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	addr, tgt, stop := startTarget(t, TargetConfig{}, id)
	c := dialMuxClient(t, addr, id, 4)
	for i := 0; i < 8; i++ {
		if _, err := c.conn.Write(dataBatch([]uint32{1, 2, 3, 4, 1, 2, 3, 4})); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	c.conn.Close()
	stop()
	_ = tgt
}

// TestServeMuxPoolDisciplineOnError pins the serve loop's error path: the
// super arena goes back to the pool when the demux fails.
func TestServeMuxPoolDisciplineOnError(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		poolBalanced(t, "demux error session", func() { runMuxErrorSession(t) })
	})
}

// TestServeMuxPoolDisciplineOnClientClose pins the abrupt-close teardown
// the same way.
func TestServeMuxPoolDisciplineOnClientClose(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		poolBalanced(t, "abrupt close session", func() { runMuxAbruptClose(t) })
	})
}

// TestMeasureSuperArenasPerMeasurement counts the super arenas one whole
// measurement takes from the pool on each data plane, and checks every
// one comes back. The measurer takes one refill arena for the control
// stream and one arena for everything it writes (circuit creation, data,
// teardown), plus a datagram read arena on the UDP plane; the target's
// serveMux takes one, and its ServeUDP loop one more.
func TestMeasureSuperArenasPerMeasurement(t *testing.T) {
	for _, tc := range []struct {
		mode string
		want uint64
	}{{"tcp", 2 + 1}, {"udp", 3 + 2}} {
		t.Run(tc.mode, func(t *testing.T) {
			before := cell.ReadPoolStats()
			id, err := NewIdentity()
			if err != nil {
				t.Fatal(err)
			}
			tgt := NewTarget(TargetConfig{})
			tgt.Authorize(id.Pub)
			ctrlClient, ctrlServer := net.Pipe()
			go func() { _ = tgt.HandleConn(ctrlServer) }()
			opts := udpMeasureOpts(id)
			var dataClient net.Conn
			if tc.mode == "udp" {
				dcli, dsrv := newDgramPipe()
				dataClient = dcli
				go tgt.ServeUDP(dsrv)
				opts.DialData = pipeDialer(dcli)
			}
			res, err := Measure(context.Background(), pipeDialer(ctrlClient), opts)
			if err != nil {
				t.Fatalf("Measure: %v", err)
			}
			if res.Failed || sumBytes(res.PerSecondBytes) == 0 {
				t.Fatalf("measurement failed=%v bytes=%v", res.Failed, sumBytes(res.PerSecondBytes))
			}
			ctrlClient.Close()
			if dataClient != nil {
				dataClient.Close()
			}
			tgt.Close()
			after := cell.ReadPoolStats()
			if got := after.SuperGets - before.SuperGets; got != tc.want {
				t.Fatalf("%d super arenas taken, want %d", got, tc.want)
			}
			if n := after.Outstanding(before); n != 0 {
				t.Fatalf("%d super arenas outstanding", n)
			}
		})
	}
}

// TestMeasureCancelPoolDiscipline cancels a measurement mid-slot on both
// data planes and checks the measurer returned every pooled buffer — the
// send loop's arena and the readers' refill arenas all have owners on the
// cancellation path.
func TestMeasureCancelPoolDiscipline(t *testing.T) {
	for _, mode := range []string{"tcp", "udp"} {
		t.Run(mode, func(t *testing.T) {
			poolBalanced(t, "cancelled measurement", func() {
				id, err := NewIdentity()
				if err != nil {
					t.Fatal(err)
				}
				tgt := NewTarget(TargetConfig{})
				tgt.Authorize(id.Pub)
				ctrlClient, ctrlServer := net.Pipe()
				go func() { _ = tgt.HandleConn(ctrlServer) }()
				opts := udpMeasureOpts(id)
				opts.Duration = 10 * time.Second
				var dataClient net.Conn
				if mode == "udp" {
					dcli, dsrv := newDgramPipe()
					dataClient = dcli
					go tgt.ServeUDP(dsrv)
					opts.DialData = pipeDialer(dcli)
				}
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(150 * time.Millisecond)
					cancel()
				}()
				_, err = Measure(ctx, pipeDialer(ctrlClient), opts)
				if err != context.Canceled {
					t.Fatalf("Measure after cancel: %v, want context.Canceled", err)
				}
				ctrlClient.Close()
				if dataClient != nil {
					dataClient.Close()
				}
				tgt.Close()
			})
		})
	}
}
