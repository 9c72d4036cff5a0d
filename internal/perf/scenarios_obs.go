package perf

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"flashflow/internal/dirauth"
	"flashflow/internal/obs"
)

// Observability-plane scenario: how fast the /v3bw snapshot handler
// answers a Tor-scale directory-fetch population. The paper's deployment
// model has every client fetching the bandwidth file each consensus
// interval, so the serve path must be renders-once, allocations-never:
// one atomic pointer load, pre-built headers, one body Write. The
// scenario measures exactly that path and fails outright if the cached
// GET path allocates, if conditional GETs stop short-circuiting to 304,
// or if serving re-enters the render path.

// serveV3BWMaxAllocs is the allocation budget per cached GET on the
// handler path. The steady state is zero; the fractional slack absorbs
// incidental runtime activity (background GC bookkeeping attributed to
// this goroutine) without letting a real per-request allocation pass.
const serveV3BWMaxAllocs = 0.5

// nullResponseWriter is a reusable http.ResponseWriter that discards the
// body: the scenario measures the handler's own work, not a socket's.
type nullResponseWriter struct {
	hdr    http.Header
	status int
	n      int64
}

func (w *nullResponseWriter) Header() http.Header { return w.hdr }

func (w *nullResponseWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

func (w *nullResponseWriter) WriteHeader(status int) { w.status = status }

func runServeV3BW(opts Options) (Result, error) {
	// Snapshot sized like a mid-size deployment: one entry per simulated
	// relay population member, published exactly once.
	entries := opts.relays() * 40
	es := make([]dirauth.BandwidthEntry, entries)
	for i := range es {
		bps := 1e6 * float64(1+i%997)
		es[i] = dirauth.BandwidthEntry{Name: fmt.Sprintf("relay-%06d", i), WeightBps: bps, CapacityBps: bps * 1.1}
	}
	f := dirauth.NewBandwidthFile("perf", time.Hour, es)
	holder := &obs.SnapshotHolder{}
	if err := holder.Publish(1, f, time.Unix(1700000000, 0)); err != nil {
		return Result{}, err
	}
	_, bodySize, etag, _, ok := holder.Info()
	if !ok {
		return Result{}, fmt.Errorf("perf: snapshot holder empty after publish")
	}

	req, err := http.NewRequest(http.MethodGet, "/v3bw", nil)
	if err != nil {
		return Result{}, err
	}
	w := &nullResponseWriter{hdr: make(http.Header, 8)}

	// Warm the path once so first-touch header-map growth is not charged
	// to the steady state the gate checks.
	holder.ServeHTTP(w, req)
	if w.n != int64(bodySize) {
		return Result{}, fmt.Errorf("perf: served %d bytes, snapshot is %d", w.n, bodySize)
	}

	window := opts.window()
	before := readMem()
	start := time.Now()
	var requests, bodyBytes int64
	for {
		w.n, w.status = 0, 0
		holder.ServeHTTP(w, req)
		requests++
		bodyBytes += w.n
		if requests%1024 == 0 && time.Since(start) >= window {
			break
		}
	}
	elapsed := time.Since(start)
	after := readMem()

	res := controlResult(requests, elapsed, before, after)
	if res.CellsPerSec > 0 {
		res.MBPerSec = float64(bodyBytes) / 1e6 / elapsed.Seconds()
	}
	if res.AllocsPerOp > serveV3BWMaxAllocs {
		return Result{}, fmt.Errorf("perf: serve-v3bw cached GET allocates %.2f/request (budget %.2f) — the zero-copy path regressed",
			res.AllocsPerOp, serveV3BWMaxAllocs)
	}

	// Revalidation phase: every request carries the current ETag and must
	// come back 304 with zero body bytes. Run a quarter of the window —
	// the point is the short-circuit, not a second throughput number.
	req304, err := http.NewRequest(http.MethodGet, "/v3bw", nil)
	if err != nil {
		return Result{}, err
	}
	req304.Header.Set("If-None-Match", etag)
	revalStart := time.Now()
	var revalidations int64
	for {
		w.n, w.status = 0, 0
		holder.ServeHTTP(w, req304)
		if w.status != http.StatusNotModified || w.n != 0 {
			return Result{}, fmt.Errorf("perf: conditional GET answered %d with %d body bytes, want 304 with none", w.status, w.n)
		}
		revalidations++
		if revalidations%1024 == 0 && time.Since(revalStart) >= window/4 {
			break
		}
	}
	revalElapsed := time.Since(revalStart)

	// The render path must not have been re-entered by any of the above:
	// serving is read-only against the published snapshot.
	if renders := holder.Renders(); renders != 1 {
		return Result{}, fmt.Errorf("perf: %d renders after serving (want 1) — requests are re-entering the render path", renders)
	}

	// End-to-end sanity over a real socket: the embedded obs server, a
	// keep-alive client, 200-then-304 against the same holder. Small and
	// bounded — loopback HTTP throughput is a property of net/http, not of
	// this repo's serve path.
	srv := obs.NewServer(obs.Config{Snapshot: holder})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	defer srv.Shutdown(context.Background())
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://" + addr.String() + "/v3bw"
	for i := 0; i < 32; i++ {
		hreq, _ := http.NewRequest(http.MethodGet, url, nil)
		want := http.StatusOK
		if i%2 == 1 {
			hreq.Header.Set("If-None-Match", etag)
			want = http.StatusNotModified
		}
		resp, err := client.Do(hreq)
		if err != nil {
			return Result{}, fmt.Errorf("perf: loopback fetch: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			return Result{}, fmt.Errorf("perf: loopback fetch %d: got %d, want %d", i, resp.StatusCode, want)
		}
	}
	if renders := holder.Renders(); renders != 1 {
		return Result{}, fmt.Errorf("perf: %d renders after loopback fetches (want 1)", renders)
	}

	res.Extra = map[string]float64{
		"snapshot_bytes":           float64(bodySize),
		"snapshot_entries":         float64(entries),
		"revalidations_per_sec":    float64(revalidations) / revalElapsed.Seconds(),
		"renders_during_workload":  0, // 1 total minus the 1 publish
		"handler_allocs_per_fetch": res.AllocsPerOp,
	}
	return res, nil
}
