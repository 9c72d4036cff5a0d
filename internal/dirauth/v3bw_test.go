package dirauth

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestV3BWRoundTrip(t *testing.T) {
	f := NewBandwidthFile("bw0", 90*time.Second, []BandwidthEntry{
		{Name: "relayB", WeightBps: 20e6, CapacityBps: 21e6},
		{Name: "relayA", WeightBps: 5e6, CapacityBps: 5.5e6},
	})

	text := FormatV3BW(f)
	got, err := ParseV3BW(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.Producer != "bw0" {
		t.Fatalf("producer: %q", got.Producer)
	}
	if got.At != 90*time.Second {
		t.Fatalf("at: %v", got.At)
	}
	if len(got.Entries) != 2 {
		t.Fatalf("entries: %v", got.Entries)
	}
	a, _ := got.Lookup("relayA")
	if a.CapacityBps != 5.5e6 {
		t.Fatalf("relayA capacity: %v", a.CapacityBps)
	}
	// Weight survives at kb/s resolution.
	if a.WeightBps != 5e6 {
		t.Fatalf("relayA weight: %v", a.WeightBps)
	}
}

func TestV3BWDeterministicOrder(t *testing.T) {
	f := NewBandwidthFile("bw0", 0, []BandwidthEntry{
		{Name: "zeta", WeightBps: 1e6, CapacityBps: 1e6},
		{Name: "alpha", WeightBps: 2e6, CapacityBps: 2e6},
	})
	text := FormatV3BW(f)
	if strings.Index(text, "node_id=alpha") > strings.Index(text, "node_id=zeta") {
		t.Fatalf("entries not sorted:\n%s", text)
	}
	// Repeated formatting is byte-identical.
	if text != FormatV3BW(f) {
		t.Fatal("formatting is not deterministic")
	}
}

func TestV3BWParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"notatimestamp\n=====\n",
		"10\nversion=1.0.0\n", // no terminator
		"10\n=====\nbw=5\n",   // relay line without node_id
	} {
		if _, err := ParseV3BW(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
}

func TestV3BWWriteToStreams(t *testing.T) {
	es := make([]BandwidthEntry, 5000)
	for i := range es {
		es[i] = BandwidthEntry{Name: fmt.Sprintf("relay-%05d", i), WeightBps: float64(i) * 1e6, CapacityBps: float64(i) * 1.1e6}
	}
	f := NewBandwidthFile("bw0", 45*time.Second, es)
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	// The streaming writer and the string formatter are the same bytes.
	if got := FormatV3BW(f); got != buf.String() {
		t.Fatal("WriteTo and FormatV3BW disagree")
	}
	parsed, err := ParseV3BW(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Entries) != 5000 {
		t.Fatalf("entries after roundtrip: %d", len(parsed.Entries))
	}
	if e, _ := parsed.Lookup("relay-04999"); e.CapacityBps != 4999*1.1e6 {
		t.Fatalf("capacity after roundtrip: %v", e.CapacityBps)
	}
	if e, _ := parsed.Lookup("relay-00042"); e.WeightBps != 42e6 {
		t.Fatalf("weight after roundtrip: %v", e.WeightBps)
	}
}

func TestV3BWParseAcceptsTabSeparatedFields(t *testing.T) {
	in := "10\nproducer=x\n=====\nnode_id=r1\tbw=500\tcapacity=5e8\n"
	f, err := ParseV3BW(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := f.Lookup("r1")
	if !ok {
		t.Fatalf("tab-separated relay line lost: %v", f.Entries)
	}
	if e.WeightBps != 500e3 || e.CapacityBps != 5e8 {
		t.Fatalf("tab-separated fields misparsed: %+v", e)
	}
}

func TestV3BWWriteToPropagatesError(t *testing.T) {
	es := make([]BandwidthEntry, 100000)
	for i := range es {
		es[i] = BandwidthEntry{Name: fmt.Sprintf("relay-%06d", i), WeightBps: 1e6, CapacityBps: 1e6}
	}
	f := NewBandwidthFile("bw0", time.Second, es)
	w := &failAfter{limit: 100}
	if _, err := f.WriteTo(w); err == nil {
		t.Fatal("write error should surface")
	}
}

type failAfter struct {
	n, limit int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.limit {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

func TestMergeMedianFile(t *testing.T) {
	mk := func(name string, caps map[string]float64) *BandwidthFile {
		var es []BandwidthEntry
		for n, c := range caps {
			es = append(es, BandwidthEntry{Name: n, WeightBps: c, CapacityBps: c})
		}
		return NewBandwidthFile(name, 0, es)
	}
	merged := MergeMedianFile("coord", time.Hour, []*BandwidthFile{
		mk("a", map[string]float64{"r1": 10e6, "r2": 40e6}),
		mk("b", map[string]float64{"r1": 20e6, "r2": 50e6}),
		mk("c", map[string]float64{"r1": 30e6}),
	})
	if e, _ := merged.Lookup("r1"); e.CapacityBps != 20e6 {
		t.Fatalf("r1 median: %v", e.CapacityBps)
	}
	if e, _ := merged.Lookup("r2"); e.CapacityBps != 45e6 {
		t.Fatalf("r2 median: %v", e.CapacityBps)
	}
	if merged.Producer != "coord" || merged.At != time.Hour {
		t.Fatalf("metadata: %q %v", merged.Producer, merged.At)
	}
}

// TestRenderETag pins the /v3bw serving contract: Render produces the
// same bytes as WriteTo, a strong quoted ETag that is stable for equal
// file state (even across separately built files, so restarts keep
// client caches valid), and a different ETag once the state changes.
func TestRenderETag(t *testing.T) {
	build := func(extra ...BandwidthEntry) *BandwidthFile {
		return NewBandwidthFile("bw0", 90*time.Second, append([]BandwidthEntry{
			{Name: "relayB", WeightBps: 20e6, CapacityBps: 21e6},
			{Name: "relayA", WeightBps: 5e6, CapacityBps: 5.5e6},
		}, extra...))
	}

	f := build()
	body, etag, err := f.Render()
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if _, err := f.WriteTo(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, direct.Bytes()) {
		t.Fatalf("Render body differs from WriteTo:\n%q\nvs\n%q", body, direct.Bytes())
	}
	if len(etag) < 4 || etag[0] != '"' || etag[len(etag)-1] != '"' {
		t.Fatalf("ETag not a quoted strong tag: %q", etag)
	}

	_, etag2, err := build().Render()
	if err != nil {
		t.Fatal(err)
	}
	if etag2 != etag {
		t.Fatalf("equal state produced different ETags: %q vs %q", etag, etag2)
	}

	changed := build(BandwidthEntry{Name: "relayC", WeightBps: 1e6, CapacityBps: 1e6})
	_, etag3, err := changed.Render()
	if err != nil {
		t.Fatal(err)
	}
	if etag3 == etag {
		t.Fatalf("changed state kept ETag %q", etag)
	}
}

// BenchmarkV3BWRoundTrip1M streams a million-entry bandwidth file through
// WriteTo into one reused buffer and parses it back: the snapshot round
// trip a coordinator and a directory authority perform each period. It
// reports entries/s surviving the round trip.
func BenchmarkV3BWRoundTrip1M(b *testing.B) {
	const n = 1000000
	entries := make([]BandwidthEntry, n)
	for i := range entries {
		capBps := 1e6 * (1 + float64(i%4096)) * (1 + float64(i)*1e-8)
		entries[i] = BandwidthEntry{Name: fmt.Sprintf("relay-%07d", i), WeightBps: capBps, CapacityBps: capBps}
	}
	f := NewBandwidthFile("bench", time.Hour, entries)
	var buf bytes.Buffer
	roundTrip := func() {
		buf.Reset()
		if _, err := f.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		parsed, err := ParseV3BW(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if len(parsed.Entries) != n {
			b.Fatalf("round trip kept %d of %d entries", len(parsed.Entries), n)
		}
	}
	roundTrip() // grows the buffer
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "entries/s")
}
