package obs

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"flashflow/internal/dirauth"
)

// maxCachedGETAllocs is the allocation budget per cached /v3bw GET on the
// handler path. The steady state is zero; the fractional slack absorbs
// incidental runtime activity without letting a real per-request
// allocation pass.
const maxCachedGETAllocs = 0.5

// discardWriter is a reusable http.ResponseWriter that counts and drops
// the body, so the test sees the handler's own work, not a socket's.
type discardWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.hdr }

func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

func (w *discardWriter) WriteHeader(status int) { w.status = status }

// TestServeV3BWCachedPath pins the serve path a Tor-scale fetch
// population hammers: a cached GET serves the whole published body
// within the allocation budget, a conditional GET carrying the current
// ETag answers 304 with no body bytes, and neither re-enters the render
// path — the holder still counts the one render its Publish made.
func TestServeV3BWCachedPath(t *testing.T) {
	es := make([]dirauth.BandwidthEntry, 2000)
	for i := range es {
		bps := 1e6 * float64(1+i%997)
		es[i] = dirauth.BandwidthEntry{Name: fmt.Sprintf("relay-%06d", i), WeightBps: bps, CapacityBps: bps * 1.1}
	}
	holder := &SnapshotHolder{}
	if err := holder.Publish(1, dirauth.NewBandwidthFile("obs-test", time.Hour, es), time.Unix(1700000000, 0)); err != nil {
		t.Fatal(err)
	}
	_, size, etag, _, ok := holder.Info()
	if !ok {
		t.Fatal("snapshot holder empty after publish")
	}

	req, err := http.NewRequest(http.MethodGet, "/v3bw", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{hdr: make(http.Header, 8)}
	// The first request grows the header map; the budget is for the
	// steady state after it.
	holder.ServeHTTP(w, req)
	if w.n != size {
		t.Fatalf("served %d bytes, snapshot is %d", w.n, size)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		w.n, w.status = 0, 0
		holder.ServeHTTP(w, req)
	}); allocs > maxCachedGETAllocs {
		t.Fatalf("cached GET allocates %.2f per request, budget %.2f", allocs, maxCachedGETAllocs)
	}
	if w.n != size {
		t.Fatalf("served %d bytes, snapshot is %d", w.n, size)
	}

	revalidate, err := http.NewRequest(http.MethodGet, "/v3bw", nil)
	if err != nil {
		t.Fatal(err)
	}
	revalidate.Header.Set("If-None-Match", etag)
	for i := 0; i < 100; i++ {
		w.n, w.status = 0, 0
		holder.ServeHTTP(w, revalidate)
		if w.status != http.StatusNotModified || w.n != 0 {
			t.Fatalf("conditional GET answered %d with %d body bytes, want 304 with none", w.status, w.n)
		}
	}
	if renders := holder.Renders(); renders != 1 {
		t.Fatalf("%d renders after serving, want 1: requests re-entered the render path", renders)
	}
}
