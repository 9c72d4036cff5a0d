package dirauth

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"flashflow/internal/stats"
)

// RelayEntry is one relay's record in a consensus.
type RelayEntry struct {
	// Name is the relay nickname (unique in this reproduction).
	Name string
	// AdvertisedBps is min(observed bandwidth, rate limit) from the
	// relay's most recent server descriptor.
	AdvertisedBps float64
	// WeightBps is the load-balancing weight assigned by the bandwidth
	// authorities (the consensus "bandwidth=" value).
	WeightBps float64
	// FirstSeen is when the relay first appeared in any consensus; used
	// by the FlashFlow scheduler to classify relays as new or old.
	FirstSeen time.Duration
}

// Consensus is a network consensus document.
type Consensus struct {
	At     time.Duration
	Relays []RelayEntry
	byName map[string]int
}

// NewConsensus builds a consensus at the given time from relay entries.
// Entries are sorted by name for determinism.
func NewConsensus(at time.Duration, relays []RelayEntry) *Consensus {
	rs := append([]RelayEntry(nil), relays...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	idx := make(map[string]int, len(rs))
	for i, r := range rs {
		idx[r.Name] = i
	}
	return &Consensus{At: at, Relays: rs, byName: idx}
}

// Lookup returns the entry for the named relay.
func (c *Consensus) Lookup(name string) (RelayEntry, bool) {
	i, ok := c.byName[name]
	if !ok {
		return RelayEntry{}, false
	}
	return c.Relays[i], true
}

// TotalWeight returns the sum of all relay weights.
func (c *Consensus) TotalWeight() float64 {
	var t float64
	for _, r := range c.Relays {
		t += r.WeightBps
	}
	return t
}

// TotalAdvertised returns the sum of advertised bandwidths — the network
// capacity estimate plotted in Fig. 5.
func (c *Consensus) TotalAdvertised() float64 {
	var t float64
	for _, r := range c.Relays {
		t += r.AdvertisedBps
	}
	return t
}

// NormalizedWeights returns each relay's selection probability: its weight
// divided by the total (paper §3.2).
func (c *Consensus) NormalizedWeights() []float64 {
	ws := make([]float64, len(c.Relays))
	for i, r := range c.Relays {
		ws[i] = r.WeightBps
	}
	return stats.Normalize(ws)
}

// BandwidthFile is a bandwidth authority's output: per-relay weight and,
// for FlashFlow, a capacity estimate (Table 2's "capacity values" column).
//
// Entries is sorted by relay name and holds each name once. Every v3bw
// operation leans on that invariant — rendering is one pass in order,
// merging is one k-way walk, Lookup is a binary search — so build files
// through NewBandwidthFile, which establishes it.
type BandwidthFile struct {
	Producer string
	At       time.Duration
	Entries  []BandwidthEntry
}

// BandwidthEntry is one relay's line in a bandwidth file.
type BandwidthEntry struct {
	Name        string
	WeightBps   float64
	CapacityBps float64 // zero if the producer provides weights only
}

// NewBandwidthFile builds a bandwidth file from entries in any order and
// takes ownership of the slice. Entries that already ascend strictly by
// name are used as they are; otherwise they are sorted once, and where a
// name repeats the entry that came last wins.
func NewBandwidthFile(producer string, at time.Duration, entries []BandwidthEntry) *BandwidthFile {
	return &BandwidthFile{Producer: producer, At: at, Entries: sortEntries(entries)}
}

// sortEntries returns es ordered by name with each name once, keeping the
// last of any repeated name.
func sortEntries(es []BandwidthEntry) []BandwidthEntry {
	if strictlyAscending(es) {
		return es
	}
	byName := func(a, b BandwidthEntry) int { return strings.Compare(a.Name, b.Name) }
	sorted := slices.Clone(es)
	slices.SortFunc(sorted, byName)
	if strictlyAscending(sorted) {
		return sorted
	}
	// Repeated names: the unstable sort lost their input order, so redo
	// it stably from the original (twice the cost, rare input).
	slices.SortStableFunc(es, byName)
	out := es[:0]
	for i, e := range es {
		if i+1 < len(es) && es[i+1].Name == e.Name {
			continue
		}
		out = append(out, e)
	}
	return out
}

func strictlyAscending(es []BandwidthEntry) bool {
	for i := 1; i < len(es); i++ {
		if es[i-1].Name >= es[i].Name {
			return false
		}
	}
	return true
}

// Lookup returns the named relay's entry.
func (f *BandwidthFile) Lookup(name string) (BandwidthEntry, bool) {
	i, ok := slices.BinarySearchFunc(f.Entries, name, func(e BandwidthEntry, n string) int {
		return strings.Compare(e.Name, n)
	})
	if !ok {
		return BandwidthEntry{}, false
	}
	return f.Entries[i], true
}

// eachRelay is the k-way merge behind every multi-file operation. It walks
// the name-sorted files in lockstep and calls fn once per relay name, in
// ascending order, with the relay's entries from the files that list it,
// in file order. The slice is reused between calls.
func eachRelay(files []*BandwidthFile, fn func(name string, es []BandwidthEntry)) {
	heads := make([]int, len(files))
	es := make([]BandwidthEntry, 0, len(files))
	for {
		var name string
		found := false
		for i, f := range files {
			if h := heads[i]; h < len(f.Entries) && (!found || f.Entries[h].Name < name) {
				name, found = f.Entries[h].Name, true
			}
		}
		if !found {
			return
		}
		es = es[:0]
		for i, f := range files {
			if h := heads[i]; h < len(f.Entries) && f.Entries[h].Name == name {
				es = append(es, f.Entries[h])
				heads[i]++
			}
		}
		fn(name, es)
	}
}

// SplitViewFactor is the §5 split-view threshold: a relay whose
// capacity across BWAuths spans more than this ratio (max/min) is
// flagged for showing different teams different capacities.
const SplitViewFactor = 1.5

// SplitView is the one split-view rule. It flags a relay whose per-view
// values number at least two, whose smallest is positive and whose
// largest exceeds factor times the smallest; a negative factor flags
// nothing. The first value sets the bounds and a later NaN is passed
// over, so NaN never makes a relay a suspect on its own.
func SplitView(vals []float64, factor float64) bool {
	if factor < 0 || len(vals) < 2 {
		return false
	}
	// Explicit comparisons rather than min/max: a NaN must not poison
	// the bounds.
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo > 0 && hi/lo > factor
}

// medianMerge is the one pass behind MergeMedianFile, MedianCapacities and
// the merge node's split-view check. Per relay it takes the median of the
// positive capacities across files (the mean of the middle two for an
// even count) as both weight and capacity, skipping relays with none. It
// also returns, in name order, the relays SplitView flags at splitFactor
// over their capacities in file order — the weight for a weights-only
// entry.
func medianMerge(files []*BandwidthFile, splitFactor float64) (merged []BandwidthEntry, split []string) {
	longest := 0
	for _, f := range files {
		longest = max(longest, len(f.Entries))
	}
	merged = make([]BandwidthEntry, 0, longest)
	caps := make([]float64, 0, len(files))
	vals := make([]float64, 0, len(files))
	eachRelay(files, func(name string, es []BandwidthEntry) {
		caps, vals = caps[:0], vals[:0]
		for _, e := range es {
			if e.CapacityBps > 0 {
				caps = append(caps, e.CapacityBps)
			}
			c := e.CapacityBps
			if c <= 0 {
				c = e.WeightBps
			}
			vals = append(vals, c)
		}
		if len(caps) > 0 {
			m := stats.Median(caps)
			merged = append(merged, BandwidthEntry{Name: name, WeightBps: m, CapacityBps: m})
		}
		if SplitView(vals, splitFactor) {
			split = append(split, name)
		}
	})
	return merged, split
}

// ErrNoFiles is returned when aggregating zero bandwidth files.
var ErrNoFiles = errors.New("dirauth: no bandwidth files to aggregate")

// AggregateMedian implements the DirAuth vote: for each relay named in any
// file, the consensus weight is the median of the weights assigned by the
// files that include it, provided a majority of files include it (a relay
// measured by fewer than half the BWAuths is not yet used, per §2).
func AggregateMedian(at time.Duration, files []*BandwidthFile, firstSeen map[string]time.Duration, advertised map[string]float64) (*Consensus, error) {
	if len(files) == 0 {
		return nil, ErrNoFiles
	}
	majority := len(files)/2 + 1
	var entries []RelayEntry
	ws := make([]float64, 0, len(files))
	eachRelay(files, func(n string, es []BandwidthEntry) {
		if len(es) < majority {
			return
		}
		ws = ws[:0]
		for _, e := range es {
			ws = append(ws, e.WeightBps)
		}
		e := RelayEntry{Name: n, WeightBps: stats.Median(ws)}
		if firstSeen != nil {
			e.FirstSeen = firstSeen[n]
		}
		if advertised != nil {
			e.AdvertisedBps = advertised[n]
		}
		entries = append(entries, e)
	})
	return NewConsensus(at, entries), nil
}

// MedianCapacities returns per-relay median capacity estimates across
// bandwidth files, for producers (like FlashFlow) that report capacities.
func MedianCapacities(files []*BandwidthFile) map[string]float64 {
	merged, _ := medianMerge(files, -1)
	out := make(map[string]float64, len(merged))
	for _, e := range merged {
		out[e.Name] = e.CapacityBps
	}
	return out
}

// String implements fmt.Stringer for diagnostics.
func (c *Consensus) String() string {
	return fmt.Sprintf("consensus(at=%v relays=%d totalWeight=%.0f)", c.At, len(c.Relays), c.TotalWeight())
}
