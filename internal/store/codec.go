package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"flashflow/internal/core"
)

// This file is the durable binary codec shared by the WAL and the
// snapshot. Everything is varint-based except float64s (fixed 8 bytes,
// IEEE-754 bits little-endian, so values round-trip exactly), strings
// are length-prefixed, and map-shaped data is emitted in sorted key
// order so encoding the same State twice yields byte-identical output —
// the property the replay-determinism tests pin and the reason two
// recoveries of the same files agree exactly.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(p []byte) (string, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || uint64(len(p)-w) < n {
		return "", p, fmt.Errorf("store: truncated string")
	}
	return string(p[w : w+int(n)]), p[w+int(n):], nil
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func decodeFloat(p []byte) (float64, []byte, error) {
	if len(p) < 8 {
		return 0, p, fmt.Errorf("store: truncated float")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p)), p[8:], nil
}

func decodeUvarint(p []byte) (uint64, []byte, error) {
	v, w := binary.Uvarint(p)
	if w <= 0 {
		return 0, p, fmt.Errorf("store: truncated varint")
	}
	return v, p[w:], nil
}

// appendRecord appends one WAL record's payload (the CRC frame is the
// caller's job). Submission-only fields follow the common fields for
// KindSubmission records; the original kinds are byte-for-byte the
// format-version-1 layout.
func appendRecord(buf []byte, rec Record) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, uint64(rec.Round))
	buf = appendString(buf, rec.Relay)
	buf = appendFloat(buf, rec.Bps)
	buf = rec.Counts.AppendBinary(buf)
	if rec.Kind == KindSubmission {
		buf = binary.AppendUvarint(buf, uint64(rec.Version))
		buf = binary.AppendUvarint(buf, uint64(rec.Unix))
		buf = binary.AppendUvarint(buf, uint64(len(rec.Body)))
		buf = append(buf, rec.Body...)
	}
	return buf
}

// decodeRecord parses one record payload. The payload must be exactly
// one record: trailing bytes mean the frame and the codec disagree,
// which is corruption, not extensibility (extensibility lives in the
// file-header version and the anomaly field-count prefix).
func decodeRecord(p []byte) (Record, error) {
	var rec Record
	if len(p) == 0 {
		return rec, fmt.Errorf("store: empty record")
	}
	rec.Kind = Kind(p[0])
	if rec.Kind < KindRound || rec.Kind > KindSubmission {
		return rec, fmt.Errorf("store: unknown record kind %d", rec.Kind)
	}
	p = p[1:]
	round, p, err := decodeUvarint(p)
	if err != nil {
		return rec, err
	}
	rec.Round = int(round)
	if rec.Relay, p, err = decodeString(p); err != nil {
		return rec, err
	}
	if rec.Bps, p, err = decodeFloat(p); err != nil {
		return rec, err
	}
	if rec.Counts, p, err = core.DecodeAnomalyCounts(p); err != nil {
		return rec, err
	}
	if rec.Kind == KindSubmission {
		var v, unix, blen uint64
		if v, p, err = decodeUvarint(p); err != nil {
			return rec, err
		}
		rec.Version = uint16(v)
		if unix, p, err = decodeUvarint(p); err != nil {
			return rec, err
		}
		rec.Unix = int64(unix)
		if blen, p, err = decodeUvarint(p); err != nil {
			return rec, err
		}
		if uint64(len(p)) < blen {
			return rec, fmt.Errorf("store: truncated submission body")
		}
		rec.Body = append([]byte(nil), p[:blen]...)
		p = p[blen:]
	}
	if len(p) != 0 {
		return rec, fmt.Errorf("store: %d trailing bytes after record", len(p))
	}
	return rec, nil
}

// appendState appends the snapshot payload: round, sorted priors, sorted
// anomaly records, then the v3bw body.
func appendState(buf []byte, st *State) []byte {
	buf = binary.AppendUvarint(buf, uint64(st.Round))

	names := make([]string, 0, len(st.Priors))
	for n := range st.Priors {
		names = append(names, n)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = appendString(buf, n)
		buf = appendFloat(buf, st.Priors[n])
	}

	names = names[:0]
	for n := range st.Anomalies {
		names = append(names, n)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		a := st.Anomalies[n]
		buf = appendString(buf, n)
		buf = binary.AppendUvarint(buf, uint64(a.LastSeen))
		buf = a.Counts.AppendBinary(buf)
	}

	buf = binary.AppendUvarint(buf, uint64(st.V3BW.Round))
	buf = binary.AppendUvarint(buf, uint64(len(st.V3BW.Body)))
	buf = append(buf, st.V3BW.Body...)

	// Submissions section (format version 2). Version-1 snapshots simply
	// end after the v3bw body; decodeState treats a missing section as an
	// empty map.
	names = names[:0]
	for n := range st.Submissions {
		names = append(names, n)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		sub := st.Submissions[n]
		buf = appendString(buf, n)
		buf = binary.AppendUvarint(buf, uint64(sub.Round))
		buf = binary.AppendUvarint(buf, uint64(sub.Version))
		buf = binary.AppendUvarint(buf, uint64(sub.Unix))
		buf = binary.AppendUvarint(buf, uint64(len(sub.Body)))
		buf = append(buf, sub.Body...)
	}
	return buf
}

// sizeHint bounds a declared element count by the smallest encoding an
// element can have (9 bytes: length byte + one-byte name + fixed float,
// or name + varint + field-count prefix), yielding a map-preallocation
// hint that corrupt counts cannot inflate past the payload itself.
func sizeHint(n uint64, remaining int) int {
	if max := uint64(remaining / 9); n > max {
		n = max
	}
	return int(n)
}

// decodeState parses a snapshot payload written by appendState.
func decodeState(p []byte) (*State, error) {
	st := NewState()
	round, p, err := decodeUvarint(p)
	if err != nil {
		return nil, err
	}
	st.Round = int(round)

	n, p, err := decodeUvarint(p)
	if err != nil {
		return nil, err
	}
	// Presize from the declared count: growing a million-entry map
	// through its doublings would dominate recovery time. The hint is
	// capped by what the remaining bytes could possibly hold (every
	// entry costs ≥9 bytes), so a corrupt count cannot drive a huge
	// allocation before the decode loop fails on truncation. Every prior
	// is decoded before any is inserted: at a million priors,
	// interleaving each map insert with its decode and string allocation
	// measured about twice as slow per insert.
	hint := sizeHint(n, len(p))
	names := make([]string, 0, hint)
	vals := make([]float64, 0, hint)
	for i := uint64(0); i < n; i++ {
		var name string
		var bps float64
		if name, p, err = decodeString(p); err != nil {
			return nil, err
		}
		if bps, p, err = decodeFloat(p); err != nil {
			return nil, err
		}
		names = append(names, name)
		vals = append(vals, bps)
	}
	st.Priors = make(map[string]float64, len(names))
	for i, name := range names {
		st.Priors[name] = vals[i]
	}

	if n, p, err = decodeUvarint(p); err != nil {
		return nil, err
	}
	st.Anomalies = make(map[string]AnomalyRecord, sizeHint(n, len(p)))
	for i := uint64(0); i < n; i++ {
		var name string
		var last uint64
		var rec AnomalyRecord
		if name, p, err = decodeString(p); err != nil {
			return nil, err
		}
		if last, p, err = decodeUvarint(p); err != nil {
			return nil, err
		}
		rec.LastSeen = int(last)
		if rec.Counts, p, err = core.DecodeAnomalyCounts(p); err != nil {
			return nil, err
		}
		st.Anomalies[name] = rec
	}

	if n, p, err = decodeUvarint(p); err != nil {
		return nil, err
	}
	st.V3BW.Round = int(n)
	if n, p, err = decodeUvarint(p); err != nil {
		return nil, err
	}
	if uint64(len(p)) < n {
		return nil, fmt.Errorf("store: truncated v3bw body")
	}
	if n > 0 {
		// The body aliases the payload rather than copying it: Load
		// reads the snapshot into a buffer of its own and keeps nothing
		// else of it, and at a million relays the copy would double the
		// largest allocation of a warm restart.
		st.V3BW.Body = p[:n:n]
	}
	p = p[n:]

	// Submissions section. Absent in format-version-1 snapshots, whose
	// payload ends exactly at the v3bw body.
	if len(p) == 0 {
		return st, nil
	}
	if n, p, err = decodeUvarint(p); err != nil {
		return nil, err
	}
	st.Submissions = make(map[string]SubmissionRecord, sizeHint(n, len(p)))
	for i := uint64(0); i < n; i++ {
		var name string
		var round, version, unix, blen uint64
		var sub SubmissionRecord
		if name, p, err = decodeString(p); err != nil {
			return nil, err
		}
		if round, p, err = decodeUvarint(p); err != nil {
			return nil, err
		}
		if version, p, err = decodeUvarint(p); err != nil {
			return nil, err
		}
		if unix, p, err = decodeUvarint(p); err != nil {
			return nil, err
		}
		if blen, p, err = decodeUvarint(p); err != nil {
			return nil, err
		}
		if uint64(len(p)) < blen {
			return nil, fmt.Errorf("store: truncated submission body")
		}
		sub.Round, sub.Version, sub.Unix = int(round), uint16(version), int64(unix)
		sub.Body = append([]byte(nil), p[:blen]...)
		p = p[blen:]
		st.Submissions[name] = sub
	}
	return st, nil
}
