package dirauth

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// This file implements a v3bw-style serialization of bandwidth files — the
// on-disk format a continuously running FlashFlow deployment publishes for
// directory-authority consumption (§4, Table 2). The layout follows Tor's
// bandwidth-file spec in spirit: a timestamp line, "key=value" header
// lines, a terminator, then one relay per line. Relays are identified by
// nickname (unique in this reproduction) rather than fingerprint.
//
// Serialization streams: a BandwidthFile's entries are already sorted by
// name, so WriteTo renders them in order, one line at a time through an
// internal buffer — snapshotting a million-relay population costs a few
// kilobytes of scratch rather than the whole file in memory, and no sort.
// ParseV3BW reads line-at-a-time off a bufio.Scanner, splits fields in
// place and appends entries in input order; a file that WriteTo produced
// ascends strictly and is kept as read, anything else is sorted once. The
// caller owns the destination writer and the lifetime of the parsed file;
// neither function retains the other's buffers.

// v3bw format constants.
const (
	v3bwVersion    = "1.0.0"
	v3bwSoftware   = "flashflow"
	v3bwTerminator = "====="
)

// WriteTo streams the bandwidth file in the v3bw-style text format.
// Relays appear in the file's name order, so the output is deterministic.
// It implements io.WriterTo; lines are gathered into 64 KiB writes, so
// handing it a bare *os.File is fine.
func (f *BandwidthFile) WriteTo(w io.Writer) (int64, error) {
	const chunk = 64 << 10
	buf := f.appendHeader(make([]byte, 0, chunk+512))
	var n int64
	flush := func() error {
		m, err := w.Write(buf)
		n += int64(m)
		if err == nil && m < len(buf) {
			err = io.ErrShortWrite
		}
		buf = buf[:0]
		return err
	}
	for _, e := range f.Entries {
		buf = appendRelayLine(buf, e)
		if len(buf) >= chunk {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
	return n, flush()
}

// appendHeader appends the timestamp line, the header lines and the
// terminator.
func (f *BandwidthFile) appendHeader(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(f.At/time.Second), 10)
	dst = append(dst, "\nversion="+v3bwVersion+"\nsoftware="+v3bwSoftware+"\nproducer="...)
	dst = append(dst, f.Producer...)
	return append(dst, "\n"+v3bwTerminator+"\n"...)
}

// appendRelayLine appends e's relay line. Lines are built with
// strconv.Append rather than fmt: at bandwidth-file scale fmt's
// reflection-driven formatting is the dominant cost of a snapshot.
func appendRelayLine(dst []byte, e BandwidthEntry) []byte {
	// bw is in kilobits/s like Tor's consensus weights; capacity keeps
	// full bits/s resolution (FlashFlow's distinguishing output, Table 2).
	dst = append(dst, "node_id="...)
	dst = append(dst, e.Name...)
	dst = append(dst, " bw="...)
	dst = strconv.AppendInt(dst, int64(e.WeightBps/1000), 10)
	dst = append(dst, " capacity="...)
	dst = appendCapacity(dst, e.CapacityBps)
	return append(dst, '\n')
}

// appendCapacity appends exactly what strconv.AppendFloat(dst, c, 'f', 0,
// 64) does. Below 2^53 every double is an integer or has an exact decimal
// expansion, so rounding it half-to-even — as the float formatter rounds
// a tie — and printing the integer gives the same digits without the
// formatter's multi-precision decimal conversion, the bulk of a render.
// NaN, ±Inf, huge values and results that print as "-0" keep the float
// formatter.
func appendCapacity(dst []byte, c float64) []byte {
	if math.Abs(c) < 1<<53 {
		if r := math.RoundToEven(c); r != 0 || !math.Signbit(r) {
			return strconv.AppendInt(dst, int64(r), 10)
		}
	}
	return strconv.AppendFloat(dst, c, 'f', 0, 64)
}

// Render materializes the bandwidth file once into an owned byte slice
// and derives a strong ETag — the quoted hex SHA-256 of the body. The
// HTTP observability plane renders each round's snapshot exactly once
// through this and then serves the cached bytes to every directory fetch;
// because the output is deterministic (name-ordered entries), two renders
// of equal state produce byte-identical bodies and therefore equal ETags,
// so client revalidation survives a coordinator restart. The body is the
// same bytes WriteTo streams.
func (f *BandwidthFile) Render() (body []byte, etag string, err error) {
	size := 64 + len(f.Producer)
	for _, e := range f.Entries {
		size += len(e.Name) + 40 // fixed text plus typical bw and capacity digits
	}
	body = f.appendHeader(make([]byte, 0, size))
	for _, e := range f.Entries {
		body = appendRelayLine(body, e)
	}
	sum := sha256.Sum256(body)
	return body, `"` + hex.EncodeToString(sum[:]) + `"`, nil
}

// FormatV3BW renders a bandwidth file in the v3bw-style text format as
// one string. Prefer WriteTo for large files: FormatV3BW necessarily
// materializes the whole document.
func FormatV3BW(f *BandwidthFile) string {
	var b strings.Builder
	_, _ = f.WriteTo(&b) // strings.Builder never returns a write error
	return b.String()
}

// ParseV3BW parses the WriteTo/FormatV3BW text format back into a
// bandwidth file, one line at a time. Relay lines may come in any order;
// where a relay repeats, its last line wins.
func ParseV3BW(r io.Reader) (*BandwidthFile, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("dirauth: v3bw: empty input")
	}
	secs, err := strconv.ParseInt(strings.TrimSpace(sc.Text()), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("dirauth: v3bw timestamp: %w", err)
	}
	at := time.Duration(secs) * time.Second
	var producer string
	var entries []BandwidthEntry
	if l, ok := r.(interface{ Len() int }); ok {
		// In-memory readers (bytes.Reader, strings.Reader) say how much
		// is left: size the entries for a typical ~48-byte relay line
		// instead of regrowing a multi-megabyte slice as lines arrive.
		entries = make([]BandwidthEntry, 0, l.Len()/48)
	}

	// Header lines until the terminator.
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("dirauth: v3bw: missing terminator")
		}
		line := strings.TrimSpace(sc.Text())
		if line == v3bwTerminator {
			break
		}
		if k, v, ok := strings.Cut(line, "="); ok && k == "producer" {
			producer = v
		}
	}

	// Relay lines: fields are split in place on the scanner's byte
	// slice; only the relay name is converted to a retained string.
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
			// Fields separate on spaces or tabs, as the old
			// strings.Fields-based parser accepted. A plain byte loop:
			// fields are a few bytes long, too short for IndexAny's
			// set-building to pay off.
			sp := 0
			for sp < len(rest) && rest[sp] != ' ' && rest[sp] != '\t' {
				sp++
			}
			if sp < len(rest) {
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
			switch string(key) { // compiler avoids the alloc for switch comparisons
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
		entries = append(entries, BandwidthEntry{Name: name, WeightBps: weightBps, CapacityBps: capacityBps})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dirauth: v3bw read: %w", err)
	}
	return NewBandwidthFile(producer, at, entries), nil
}

// MergeMedianFile aggregates several BWAuths' bandwidth files into one
// publishable file: per-relay median capacity across the files that
// measured the relay, used as both weight and capacity (FlashFlow reports
// capacities directly, Table 2). It is the snapshot-producing counterpart
// of AggregateMedian, which feeds consensus weights instead.
func MergeMedianFile(producer string, at time.Duration, files []*BandwidthFile) *BandwidthFile {
	merged, _ := medianMerge(files, -1)
	return NewBandwidthFile(producer, at, merged)
}
