package obs

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"flashflow/internal/dirauth"
)

// v3bwSnapshot is one immutable pre-rendered bandwidth-file document. All
// fields — including the pre-formatted header values — are computed once
// at publication, so the serve path touches nothing but this struct and
// performs zero allocations per request.
type v3bwSnapshot struct {
	body    []byte
	round   int64
	modTime time.Time
	// Pre-built header value slices: assigning a ready []string into the
	// http.Header map is the only header write the serve path does, so a
	// request never allocates the []string{...} literal Header.Set would.
	etag          []string
	lastModified  []string
	contentLength []string
}

var (
	v3bwContentType = []string{"text/plain; charset=utf-8"}
	jsonContentType = []string{"application/json; charset=utf-8"}
)

// SnapshotHolder owns the atomically swapped /v3bw document. The
// coordinator's OnSnapshot hook publishes each round's merged bandwidth
// file through Publish (one render per round); ServeHTTP serves the
// cached body to any number of concurrent directory fetches without
// locks, renders, or per-request allocations. A holder with no published
// snapshot answers 503 so load balancers hold traffic until the first
// round completes.
//
// Ownership rule: the rendered body is immutable once published — every
// reader shares the same backing array, and the next Publish swaps the
// pointer rather than mutating bytes in place. Writers must go through
// Publish/set; there is deliberately no way to get a mutable reference
// out of the holder.
type SnapshotHolder struct {
	cur     atomic.Pointer[v3bwSnapshot]
	renders atomic.Int64
}

// Publish renders the bandwidth file once and swaps it in as the served
// snapshot, stamping Last-Modified with now.
func (h *SnapshotHolder) Publish(round int, f *dirauth.BandwidthFile, now time.Time) error {
	body, etag, err := f.Render()
	if err != nil {
		return err
	}
	h.renders.Add(1)
	h.set(&v3bwSnapshot{
		body:          body,
		round:         int64(round),
		modTime:       now,
		etag:          []string{etag},
		lastModified:  []string{now.UTC().Format(http.TimeFormat)},
		contentLength: []string{strconv.Itoa(len(body))},
	})
	return nil
}

func (h *SnapshotHolder) set(s *v3bwSnapshot) { h.cur.Store(s) }

// Renders reports how many times a bandwidth file has been rendered into
// a snapshot body — TestServeV3BWCachedPath asserts this stays flat
// while requests (conditional or not) are being answered.
func (h *SnapshotHolder) Renders() int64 { return h.renders.Load() }

// Info returns the current snapshot's round, body size, ETag, and
// modification time (ok=false before the first Publish).
func (h *SnapshotHolder) Info() (round int64, size int, etag string, modTime time.Time, ok bool) {
	s := h.cur.Load()
	if s == nil {
		return 0, 0, "", time.Time{}, false
	}
	return s.round, len(s.body), s.etag[0], s.modTime, true
}

// ServeHTTP serves the current snapshot: a strong-ETag revalidation via
// If-None-Match answers 304 with no body bytes and no render, anything
// else gets the cached body. HEAD is supported (headers only). This is
// the handler a Tor-scale client population hammers, so the hot path is
// one atomic load, three pre-built header assignments, and one Write.
func (h *SnapshotHolder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := h.cur.Load()
	if s == nil {
		http.Error(w, "no v3bw snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	hdr := w.Header()
	hdr["Etag"] = s.etag
	hdr["Last-Modified"] = s.lastModified
	if etagMatches(r.Header.Get("If-None-Match"), s.etag[0]) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	hdr["Content-Type"] = v3bwContentType
	hdr["Content-Length"] = s.contentLength
	if r.Method == http.MethodHead {
		return
	}
	w.Write(s.body)
}

// etagMatches reports whether the If-None-Match header value matches the
// strong ETag: "*", the exact tag, or any member of a comma-separated
// list (a weak "W/" prefix on a member still matches per RFC 9110 — weak
// comparison is allowed for If-None-Match).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" || header == etag {
		return true
	}
	for len(header) > 0 {
		// Split on commas without strings.Split: revalidation storms hit
		// this for every request and must not allocate.
		i := 0
		for i < len(header) && header[i] != ',' {
			i++
		}
		part := trimSpaces(header[:i])
		if len(part) > 2 && part[0] == 'W' && part[1] == '/' {
			part = part[2:]
		}
		if part == etag {
			return true
		}
		if i == len(header) {
			break
		}
		header = header[i+1:]
	}
	return false
}

func trimSpaces(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}
