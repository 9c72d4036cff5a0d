package dirauth

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"flashflow/internal/stats"
)

// This file keeps the earlier map-keyed bandwidth-file implementation as a
// test oracle: the name-sorted BandwidthFile must render, parse, merge and
// flag split views exactly as it did. The differential and fuzz tests in
// v3bw_diff_test.go compare the two.

// oracleFile is the map-keyed bandwidth file: one entry per relay name,
// a later Set replacing an earlier one.
type oracleFile struct {
	Producer string
	At       time.Duration
	Entries  map[string]BandwidthEntry
}

func newOracleFile(producer string, at time.Duration) *oracleFile {
	return &oracleFile{Producer: producer, At: at, Entries: make(map[string]BandwidthEntry)}
}

func (f *oracleFile) set(name string, weightBps, capacityBps float64) {
	f.Entries[name] = BandwidthEntry{Name: name, WeightBps: weightBps, CapacityBps: capacityBps}
}

// oracleOf builds the oracle file the way callers used to: one Set per
// entry, in order.
func oracleOf(producer string, at time.Duration, es []BandwidthEntry) *oracleFile {
	f := newOracleFile(producer, at)
	for _, e := range es {
		f.set(e.Name, e.WeightBps, e.CapacityBps)
	}
	return f
}

// render collects and sorts the names, then formats each line.
func (f *oracleFile) render() []byte {
	var bw bytes.Buffer
	fmt.Fprintf(&bw, "%d\n", int64(f.At/time.Second))
	fmt.Fprintf(&bw, "version=%s\n", v3bwVersion)
	fmt.Fprintf(&bw, "software=%s\n", v3bwSoftware)
	fmt.Fprintf(&bw, "producer=%s\n", f.Producer)
	bw.WriteString(v3bwTerminator + "\n")
	names := make([]string, 0, len(f.Entries))
	for n := range f.Entries {
		names = append(names, n)
	}
	sort.Strings(names)
	line := make([]byte, 0, 128)
	for _, n := range names {
		e := f.Entries[n]
		line = append(line[:0], "node_id="...)
		line = append(line, n...)
		line = append(line, " bw="...)
		line = strconv.AppendInt(line, int64(e.WeightBps/1000), 10)
		line = append(line, " capacity="...)
		line = strconv.AppendFloat(line, e.CapacityBps, 'f', 0, 64)
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Bytes()
}

func oracleParse(r io.Reader) (*oracleFile, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("dirauth: v3bw: empty input")
	}
	secs, err := strconv.ParseInt(strings.TrimSpace(sc.Text()), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("dirauth: v3bw timestamp: %w", err)
	}
	f := newOracleFile("", time.Duration(secs)*time.Second)
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("dirauth: v3bw: missing terminator")
		}
		line := strings.TrimSpace(sc.Text())
		if line == v3bwTerminator {
			break
		}
		if k, v, ok := strings.Cut(line, "="); ok && k == "producer" {
			f.Producer = v
		}
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var name string
		var weightBps, capacityBps float64
		rest := line
		for len(rest) > 0 {
			var field []byte
			if sp := bytes.IndexAny(rest, " \t"); sp >= 0 {
				field, rest = rest[:sp], rest[sp+1:]
			} else {
				field, rest = rest, nil
			}
			if len(field) == 0 {
				continue
			}
			eq := bytes.IndexByte(field, '=')
			if eq < 0 {
				return nil, fmt.Errorf("dirauth: v3bw: bad field %q", field)
			}
			key, val := field[:eq], field[eq+1:]
			switch string(key) {
			case "node_id":
				name = string(val)
			case "bw":
				kb, err := strconv.ParseInt(string(val), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("dirauth: v3bw bw: %w", err)
				}
				weightBps = float64(kb) * 1000
			case "capacity":
				c, err := strconv.ParseFloat(string(val), 64)
				if err != nil {
					return nil, fmt.Errorf("dirauth: v3bw capacity: %w", err)
				}
				capacityBps = c
			}
		}
		if name == "" {
			return nil, fmt.Errorf("dirauth: v3bw: relay line without node_id: %q", line)
		}
		f.set(name, weightBps, capacityBps)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dirauth: v3bw read: %w", err)
	}
	return f, nil
}

func oracleMedianCapacities(files []*oracleFile) map[string]float64 {
	counts := make(map[string][]float64)
	for _, f := range files {
		for n, e := range f.Entries {
			if e.CapacityBps > 0 {
				counts[n] = append(counts[n], e.CapacityBps)
			}
		}
	}
	out := make(map[string]float64, len(counts))
	for n, cs := range counts {
		out[n] = stats.Median(cs)
	}
	return out
}

func oracleMergeMedianFile(producer string, at time.Duration, files []*oracleFile) *oracleFile {
	merged := newOracleFile(producer, at)
	for name, capBps := range oracleMedianCapacities(files) {
		merged.set(name, capBps, capBps)
	}
	return merged
}

// oracleSplitView is the merge node's split-view check over per-relay
// bounds kept in a map.
func oracleSplitView(factor float64, files []*oracleFile) []string {
	if factor < 0 || len(files) < 2 {
		return nil
	}
	type bounds struct {
		lo, hi float64
		n      int
	}
	byRelay := make(map[string]bounds)
	for _, f := range files {
		for name, e := range f.Entries {
			c := e.CapacityBps
			if c <= 0 {
				c = e.WeightBps
			}
			b, ok := byRelay[name]
			if !ok {
				b = bounds{lo: c, hi: c}
			} else {
				if c < b.lo {
					b.lo = c
				}
				if c > b.hi {
					b.hi = c
				}
			}
			b.n++
			byRelay[name] = b
		}
	}
	var out []string
	for name, b := range byRelay {
		if b.n >= 2 && b.lo > 0 && b.hi/b.lo > factor {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
