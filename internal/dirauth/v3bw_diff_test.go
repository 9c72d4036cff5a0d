package dirauth

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// randomEntries draws up to n entries over a small name pool, so views
// overlap, miss relays and — when dups is set — repeat names, in random
// order. Capacities cover the cases the merge and the renderer treat
// specially: zero and negative (skipped), whole and fractional (rounded
// when rendered), -0, 2^53 and beyond, equal values, NaN and infinity.
func randomEntries(rng *rand.Rand, n int, dups bool) []BandwidthEntry {
	pool := []string{"A", "Z9", "a", "a-1", "a1", "b", "relay-00", "relay-01", "relay-10", "relay-2", "x", "été"}
	for i := 0; i < 20; i++ {
		pool = append(pool, fmt.Sprintf("r%02d", i))
	}
	value := func() float64 {
		switch rng.Intn(18) {
		case 0:
			return 0
		case 1:
			return -float64(rng.Intn(5e6))
		case 2:
			return 10e6
		case 3:
			return math.NaN()
		case 4:
			return math.Inf(1)
		case 5:
			return float64(rng.Intn(1000)) + 0.5
		case 6:
			return math.Copysign(0, -1)
		case 7:
			return 1 << 53
		case 8:
			return 1e17 + float64(rng.Intn(1000))*16
		case 9, 10, 11:
			return float64(rng.Int63n(1e9))
		default:
			return rng.Float64() * 1e9
		}
	}
	var es []BandwidthEntry
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		name := pool[rng.Intn(len(pool))]
		if seen[name] && !dups {
			continue
		}
		seen[name] = true
		w := float64(rng.Intn(2e6)) * 1000
		if rng.Intn(10) == 0 {
			w = value()
		}
		es = append(es, BandwidthEntry{Name: name, WeightBps: w, CapacityBps: value()})
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

func render(t *testing.T, f *BandwidthFile) []byte {
	t.Helper()
	body, _, err := f.Render()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBandwidthFileMatchesOracle builds random files both ways and
// requires byte-identical renders, the same entries and the same
// Lookup answers.
func TestBandwidthFileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		es := randomEntries(rng, rng.Intn(40), iter%2 == 0)
		want := oracleOf("bw0", time.Duration(iter)*time.Second, es)
		got := NewBandwidthFile("bw0", time.Duration(iter)*time.Second, slices.Clone(es))
		if g, w := render(t, got), want.render(); !bytes.Equal(g, w) {
			t.Fatalf("iter %d: render differs\n--- sorted\n%s--- oracle\n%s", iter, g, w)
		}
		if len(got.Entries) != len(want.Entries) {
			t.Fatalf("iter %d: %d entries, oracle has %d", iter, len(got.Entries), len(want.Entries))
		}
		for _, e := range es {
			g, ok := got.Lookup(e.Name)
			if w := want.Entries[e.Name]; !ok || !sameEntry(g, w) {
				t.Fatalf("iter %d: Lookup(%q) = %+v %v, oracle %+v", iter, e.Name, g, ok, w)
			}
		}
		if _, ok := got.Lookup("missing"); ok {
			t.Fatalf("iter %d: Lookup of an absent relay succeeded", iter)
		}
	}
}

// sameEntry compares entries field by field, NaN equal to NaN.
func sameEntry(a, b BandwidthEntry) bool {
	eq := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	return a.Name == b.Name && eq(a.WeightBps, b.WeightBps) && eq(a.CapacityBps, b.CapacityBps)
}

// TestMergeMatchesOracle runs the k-way median merge, MedianCapacities
// and the split-view check against the map-based passes over 1–5 random
// views, in-memory and round-tripped through the text format.
func TestMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		k := 1 + rng.Intn(5)
		files := make([]*BandwidthFile, k)
		oracles := make([]*oracleFile, k)
		for i := range files {
			es := randomEntries(rng, rng.Intn(30), iter%3 == 0)
			oracles[i] = oracleOf(fmt.Sprintf("bw%d", i), 0, es)
			files[i] = NewBandwidthFile(fmt.Sprintf("bw%d", i), 0, es)
		}
		if iter%2 == 1 {
			// Merge what a merge node sees: the views as parsed back.
			for i, f := range files {
				body := render(t, f)
				var err error
				if files[i], err = ParseV3BW(bytes.NewReader(body)); err != nil {
					t.Fatal(err)
				}
				if oracles[i], err = oracleParse(bytes.NewReader(body)); err != nil {
					t.Fatal(err)
				}
			}
		}
		at := time.Duration(iter) * time.Minute
		got := render(t, MergeMedianFile("coord", at, files))
		if want := oracleMergeMedianFile("coord", at, oracles).render(); !bytes.Equal(got, want) {
			t.Fatalf("iter %d (%d views): merge differs\n--- k-way\n%s--- oracle\n%s", iter, k, got, want)
		}
		if got, want := MedianCapacities(files), oracleMedianCapacities(oracles); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: MedianCapacities = %v, oracle %v", iter, got, want)
		}
		for _, factor := range []float64{-1, 1, 1.5, 3} {
			_, got := medianMerge(files, factor)
			if want := oracleSplitView(factor, oracles); !slices.Equal(got, want) {
				t.Fatalf("iter %d factor %v: split view %v, oracle %v", iter, factor, got, want)
			}
		}
	}
}

// TestMergeServiceMatchesOracle drives the merge node itself: its merged
// body and split-view set equal the oracle's over the restored views.
func TestMergeServiceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, keys := newTestAuths(t, "bw0", "bw1", "bw2", "bw3", "bw4")
	for iter := 0; iter < 100; iter++ {
		svc, err := NewMergeService(MergeConfig{Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(5)
		var oracles []*oracleFile
		for i := 0; i < k; i++ {
			body := render(t, NewBandwidthFile("v", time.Duration(i)*time.Hour, randomEntries(rng, rng.Intn(30), false)))
			if err := svc.Restore(fmt.Sprintf("bw%d", i), 1, SubmissionVersionMax, body, time.Now()); err != nil {
				t.Fatal(err)
			}
			o, err := oracleParse(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			oracles = append(oracles, o)
		}
		m, err := svc.Remerge()
		if err != nil {
			t.Fatal(err)
		}
		want := oracleMergeMedianFile("dirauth", time.Duration(k-1)*time.Hour, oracles).render()
		if !bytes.Equal(m.Body, want) {
			t.Fatalf("iter %d: service merge differs\n--- service\n%s--- oracle\n%s", iter, m.Body, want)
		}
		if want := oracleSplitView(1.5, oracles); !slices.Equal(m.SplitView, want) {
			t.Fatalf("iter %d: split view %v, oracle %v", iter, m.SplitView, want)
		}
	}
}

// scramble rewrites a rendered body the ways a hand-edited or foreign
// file might differ: relay lines shuffled and duplicated, tabs, extra
// blanks, blank lines and unknown fields.
func scramble(rng *rand.Rand, body []byte) []byte {
	head, rest, _ := strings.Cut(string(body), v3bwTerminator+"\n")
	lines := strings.Split(strings.TrimSuffix(rest, "\n"), "\n")
	if rest == "" {
		lines = nil
	}
	for i := len(lines) - 1; i >= 0 && len(lines) > 0; i-- {
		if rng.Intn(4) == 0 {
			// A later field overrides an earlier one on the same line.
			lines = append(lines, lines[rng.Intn(len(lines))]+" capacity=42")
		}
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	for i, l := range lines {
		switch rng.Intn(6) {
		case 0:
			lines[i] = strings.ReplaceAll(l, " ", "\t")
		case 1:
			lines[i] = "  " + strings.ReplaceAll(l, " ", "   ") + " "
		case 2:
			lines[i] = l + " unknown=1"
		case 3:
			lines[i] = l + "\n"
		}
	}
	out := head + v3bwTerminator + "\n" + strings.Join(lines, "\n")
	if rng.Intn(2) == 0 {
		out += "\n"
	}
	return []byte(out)
}

// TestParseMatchesOracle parses rendered files, in order and scrambled,
// both ways and requires the same file.
func TestParseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 500; iter++ {
		body := render(t, NewBandwidthFile("bw1", time.Duration(iter)*time.Second, randomEntries(rng, rng.Intn(40), false)))
		if iter%2 == 1 {
			body = scramble(rng, body)
		}
		checkParseMatchesOracle(t, body)
	}
}

// checkParseMatchesOracle requires ParseV3BW and the oracle to agree on
// acceptance and, when both accept, on every entry and the rendered
// bytes.
func checkParseMatchesOracle(t *testing.T, in []byte) {
	t.Helper()
	got, err := ParseV3BW(bytes.NewReader(in))
	want, oerr := oracleParse(bytes.NewReader(in))
	if (err == nil) != (oerr == nil) {
		t.Fatalf("parse error %v, oracle error %v, input %q", err, oerr, in)
	}
	if err != nil {
		return
	}
	if got.Producer != want.Producer || got.At != want.At || len(got.Entries) != len(want.Entries) {
		t.Fatalf("parsed %q/%v/%d entries, oracle %q/%v/%d, input %q",
			got.Producer, got.At, len(got.Entries), want.Producer, want.At, len(want.Entries), in)
	}
	for i, e := range got.Entries {
		if i > 0 && got.Entries[i-1].Name >= e.Name {
			t.Fatalf("parsed entries not strictly ascending at %d: %q then %q", i, got.Entries[i-1].Name, e.Name)
		}
		if !sameEntry(e, want.Entries[e.Name]) {
			t.Fatalf("entry %+v, oracle %+v, input %q", e, want.Entries[e.Name], in)
		}
	}
	if g, w := render(t, got), want.render(); !bytes.Equal(g, w) {
		t.Fatalf("render after parse differs\n--- sorted\n%s--- oracle\n%s", g, w)
	}
}

// FuzzParseV3BW feeds arbitrary input to the parser: it must never panic,
// it must accept exactly what the oracle accepts, and whatever it accepts
// must render as the oracle's parse does. The seed corpus lives in
// testdata/fuzz/FuzzParseV3BW.
func FuzzParseV3BW(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		checkParseMatchesOracle(t, in)
	})
}

// TestAppendCapacityMatchesAppendFloat pins the integer fast path of the
// capacity column to the float formatter, ties and signs included.
func TestAppendCapacityMatchesAppendFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := []float64{
		0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -0.5, -1.5, -0.3, 0.49999999999999994,
		1<<52 + 0.5, 1<<52 + 1.5, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), 1e15 + 0.5,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for i := 0; i < 200000; i++ {
		switch i % 4 {
		case 0:
			vals = append(vals, rng.Float64()*1e10)
		case 1:
			vals = append(vals, float64(rng.Int63n(1e12))+0.5)
		case 2:
			vals = append(vals, math.Float64frombits(rng.Uint64()))
		default:
			vals = append(vals, -rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(17))))
		}
	}
	for _, v := range vals {
		got := string(appendCapacity(nil, v))
		if want := strconv.FormatFloat(v, 'f', 0, 64); got != want {
			t.Fatalf("capacity %v (bits %#x): %q, AppendFloat gives %q", v, math.Float64bits(v), got, want)
		}
	}
}
