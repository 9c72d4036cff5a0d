package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flashflow/internal/core"
)

// testRecords is a representative mutation sequence: two rounds of prior
// updates, anomaly evidence with deltas that must accumulate, and
// deletions from the retention sweep.
func testRecords() []Record {
	return []Record{
		{Kind: KindRound, Round: 1},
		{Kind: KindPrior, Relay: "relay-a", Bps: 125e6},
		{Kind: KindPrior, Relay: "relay-b", Bps: 40e6},
		{Kind: KindAnomaly, Relay: "liar", Round: 1, Counts: core.AnomalyCounts{ClampedSeconds: 7, SplitViewRounds: 1}},
		{Kind: KindRound, Round: 2},
		{Kind: KindPrior, Relay: "relay-a", Bps: 130e6},
		{Kind: KindAnomaly, Relay: "liar", Round: 2, Counts: core.AnomalyCounts{SplitViewRounds: 1}},
		{Kind: KindPriorDelete, Relay: "relay-b"},
		{Kind: KindAnomalyDelete, Relay: "ghost"},
		// A merge node's submission records: bw0 submits twice (latest
		// wins on replay, like live acceptance), bw1 once.
		{Kind: KindSubmission, Relay: "bw0", Round: 1, Version: 1, Unix: 1700000000, Body: []byte("bw0 round1 view")},
		{Kind: KindSubmission, Relay: "bw0", Round: 2, Version: 1, Unix: 1700000600, Body: []byte("bw0 round2 view")},
		{Kind: KindSubmission, Relay: "bw1", Round: 2, Version: 1, Unix: 1700000610, Body: []byte("bw1 round2 view")},
	}
}

// wantState is the state testRecords must replay into.
func wantState() *State {
	st := NewState()
	st.Round = 2
	st.Priors["relay-a"] = 130e6
	st.Anomalies["liar"] = AnomalyRecord{
		Counts:   core.AnomalyCounts{ClampedSeconds: 7, SplitViewRounds: 2},
		LastSeen: 2,
	}
	st.Submissions["bw0"] = SubmissionRecord{Round: 2, Version: 1, Unix: 1700000600, Body: []byte("bw0 round2 view")}
	st.Submissions["bw1"] = SubmissionRecord{Round: 2, Version: 1, Unix: 1700000610, Body: []byte("bw1 round2 view")}
	return st
}

func mustOpenLoad(t *testing.T, dir string) (*FileStore, *State) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s, st
}

func checkState(t *testing.T, got, want *State) {
	t.Helper()
	if got.Round != want.Round {
		t.Errorf("Round = %d, want %d", got.Round, want.Round)
	}
	if !reflect.DeepEqual(got.Priors, want.Priors) {
		t.Errorf("Priors = %v, want %v", got.Priors, want.Priors)
	}
	if !reflect.DeepEqual(got.Anomalies, want.Anomalies) {
		t.Errorf("Anomalies = %v, want %v", got.Anomalies, want.Anomalies)
	}
	if got.V3BW.Round != want.V3BW.Round || !bytes.Equal(got.V3BW.Body, want.V3BW.Body) {
		t.Errorf("V3BW = (%d, %q), want (%d, %q)", got.V3BW.Round, got.V3BW.Body, want.V3BW.Round, want.V3BW.Body)
	}
	if !reflect.DeepEqual(got.Submissions, want.Submissions) {
		t.Errorf("Submissions = %v, want %v", got.Submissions, want.Submissions)
	}
}

func TestEmptyStateDir(t *testing.T) {
	dir := t.TempDir()
	s, st := mustOpenLoad(t, dir)
	defer s.Close()
	checkState(t, st, NewState())
	// An empty dir must still come up appendable: the first round of a
	// brand-new deployment logs into a freshly created WAL.
	if err := s.Append(Record{Kind: KindRound, Round: 1}); err != nil {
		t.Fatalf("Append on fresh dir: %v", err)
	}
}

func TestWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenLoad(t, dir)
	if err := s.Append(testRecords()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// No Close: a crash does not close files, and synced appends must
	// survive anyway.
	s2, st := mustOpenLoad(t, dir)
	defer s2.Close()
	checkState(t, st, wantState())
}

func TestCheckpointPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenLoad(t, dir)
	if err := s.Append(testRecords()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ck := wantState()
	ck.V3BW = V3BW{Round: 2, Body: []byte("12345\n=====\nnode_id=relay-a bw=130 capacity=130000000\n")}
	if err := s.Checkpoint(ck); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-checkpoint tail: must replay on top of the snapshot.
	tail := []Record{
		{Kind: KindRound, Round: 3},
		{Kind: KindPrior, Relay: "relay-c", Bps: 9e6},
	}
	if err := s.Append(tail...); err != nil {
		t.Fatalf("Append tail: %v", err)
	}

	s2, st := mustOpenLoad(t, dir)
	defer s2.Close()
	want := ck.Clone()
	for _, rec := range tail {
		want.Apply(rec)
	}
	checkState(t, st, want)
}

func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenLoad(t, dir)
	if err := s.Append(testRecords()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	s.Close()

	walPath := filepath.Join(dir, WALFile)
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a prefix of the last frame. Try every
	// torn length from "just the length field" to "one byte short".
	full := appendFrame(nil, appendRecord(nil, Record{Kind: KindPrior, Relay: "torn-victim", Bps: 1e6}))
	for cut := 1; cut < len(full); cut += 7 {
		if err := os.WriteFile(walPath, append(append([]byte(nil), intact...), full[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, st := mustOpenLoad(t, dir)
		checkState(t, st, wantState())
		if _, ok := st.Priors["torn-victim"]; ok {
			t.Fatalf("cut=%d: torn record leaked into state", cut)
		}
		// The tail must be physically truncated so the next append
		// starts on a frame boundary...
		if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(len(intact)) {
			t.Fatalf("cut=%d: wal size = %v, want %d", cut, fi.Size(), len(intact))
		}
		// ...and the store must keep working after the repair.
		if err := s2.Append(Record{Kind: KindPrior, Relay: "post-repair", Bps: 2e6}); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		s2.Close()
		s3, st3 := mustOpenLoad(t, dir)
		if st3.Priors["post-repair"] != 2e6 {
			t.Fatalf("cut=%d: post-repair append lost", cut)
		}
		s3.Close()
		if err := os.WriteFile(walPath, intact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptMidWALDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenLoad(t, dir)
	if err := s.Append(testRecords()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	s.Close()

	walPath := filepath.Join(dir, WALFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the very first record: its CRC fails, and
	// the documented semantics drop everything from the first bad frame.
	raw[headerSize+frameSize] ^= 0xff
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, st := mustOpenLoad(t, dir)
	defer s2.Close()
	checkState(t, st, NewState())
}

func TestVersionSkewRejected(t *testing.T) {
	futureHeader := func(magic string) []byte {
		buf := append([]byte(nil), magic...)
		buf = binary.LittleEndian.AppendUint16(buf, FormatVersion+1)
		return binary.LittleEndian.AppendUint64(buf, 1)
	}

	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, WALFile), futureHeader(walMagic), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(); !errors.Is(err, ErrVersion) {
			t.Fatalf("Load of future-version wal: err = %v, want ErrVersion", err)
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), futureHeader(snapMagic), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(); !errors.Is(err, ErrVersion) {
			t.Fatalf("Load of future-version snapshot: err = %v, want ErrVersion", err)
		}
	})
}

func TestStaleWALGenerationDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenLoad(t, dir)
	ck := wantState()
	if err := s.Checkpoint(ck); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.Close()

	// Simulate the crash window between the snapshot rename and the WAL
	// rotation: the WAL still carries the previous generation and
	// records already folded into the snapshot.
	stale := appendHeader(nil, walMagic, 1)
	dup := appendRecord(nil, Record{Kind: KindAnomaly, Relay: "liar", Round: 2, Counts: core.AnomalyCounts{SplitViewRounds: 1}})
	stale = appendFrame(stale, dup)
	if err := os.WriteFile(filepath.Join(dir, WALFile), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, st := mustOpenLoad(t, dir)
	defer s2.Close()
	// Replaying the stale record would double-count SplitViewRounds.
	checkState(t, st, ck)
}

func TestWALAheadOfSnapshotFails(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenLoad(t, dir)
	if err := s.Checkpoint(wantState()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Losing the snapshot while keeping its WAL must not silently come
	// up with only the tail's state.
	if err := os.Remove(filepath.Join(dir, SnapshotFile)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load with wal ahead of snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestReplayDeterminism(t *testing.T) {
	// Same WAL bytes, two independent recoveries: the checkpointed
	// snapshots must be byte-identical. This is what makes recovered
	// state comparable across nodes and restarts.
	dirA, dirB := t.TempDir(), t.TempDir()
	sA, _ := mustOpenLoad(t, dirA)
	if err := sA.Append(testRecords()...); err != nil {
		t.Fatal(err)
	}
	sA.Close()
	wal, err := os.ReadFile(filepath.Join(dirA, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, WALFile), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, dir := range []string{dirA, dirB} {
		s, st := mustOpenLoad(t, dir)
		checkState(t, st, wantState())
		if err := s.Checkpoint(st); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	snapA, err := os.ReadFile(filepath.Join(dirA, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := os.ReadFile(filepath.Join(dirB, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Fatalf("same WAL produced different snapshots:\nA: %d bytes\nB: %d bytes", len(snapA), len(snapB))
	}
}

func TestMemMatchesFile(t *testing.T) {
	// The two implementations share Apply; prove the whole
	// load-append-checkpoint-load cycle agrees too.
	dir := t.TempDir()
	fs, _ := mustOpenLoad(t, dir)
	ms := NewMem()
	if _, err := ms.Load(); err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	mid := len(recs) / 2
	for _, s := range []Store{fs, ms} {
		if err := s.Append(recs[:mid]...); err != nil {
			t.Fatal(err)
		}
	}
	fsSt, err := func() (*State, error) { s2, st := mustOpenLoad(t, dir); s2.Close(); return st, nil }()
	if err != nil {
		t.Fatal(err)
	}
	msSt, _ := ms.Load()
	checkState(t, fsSt, msSt)

	for _, s := range []Store{fs, ms} {
		if err := s.Checkpoint(fsSt); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(recs[mid:]...); err != nil {
			t.Fatal(err)
		}
	}
	fs.Close()
	_, fsSt2 := mustOpenLoad(t, dir)
	msSt2, _ := ms.Load()
	checkState(t, fsSt2, msSt2)
	checkState(t, fsSt2, wantState())
}

func TestInterruptedCheckpointTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenLoad(t, dir)
	if err := s.Append(testRecords()...); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A checkpoint that died before its rename leaves tmp files; Open
	// must clear them and recovery must see only the live pair.
	for _, name := range []string{SnapshotFile + ".tmp", WALFile + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, st := mustOpenLoad(t, dir)
	defer s2.Close()
	checkState(t, st, wantState())
	for _, name := range []string{SnapshotFile + ".tmp", WALFile + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived Open", name)
		}
	}
}

// TestFormatV1SnapshotReadable pins backward compatibility: a snapshot
// written before the submissions section (format version 1, payload
// ending exactly at the v3bw body) loads with an empty submissions map
// and everything else intact.
func TestFormatV1SnapshotReadable(t *testing.T) {
	st := wantState()
	st.Submissions = map[string]SubmissionRecord{}
	st.V3BW = V3BW{Round: 2, Body: []byte("v3bw body")}

	// appendState on a submission-free state emits the v1 payload plus a
	// single zero count byte; stripping it yields the exact v1 encoding.
	payload := appendState(nil, st)
	if payload[len(payload)-1] != 0 {
		t.Fatal("expected trailing zero submission count")
	}
	payload = payload[:len(payload)-1]

	hdr := append([]byte(nil), snapMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, 1) // format version 1
	hdr = binary.LittleEndian.AppendUint64(hdr, 3) // generation
	file := appendFrame(hdr, payload)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), file, 0o644); err != nil {
		t.Fatal(err)
	}

	s, got := mustOpenLoad(t, dir)
	defer s.Close()
	checkState(t, got, st)
	if len(got.Submissions) != 0 {
		t.Fatalf("v1 snapshot produced submissions: %v", got.Submissions)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range testRecords() {
		payload := appendRecord(nil, rec)
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decodeRecord(%+v): %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("round trip: got %+v, want %+v", got, rec)
		}
	}
	if _, err := decodeRecord(append(appendRecord(nil, Record{Kind: KindRound, Round: 1}), 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := decodeRecord([]byte{0xfe}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestAppendScratchCapped: a FileStore keeps its encode scratch across
// small appends but drops what a large batch or a snapshot grew past
// maxScratch, so a round-sized buffer does not stay live between
// rounds; the state it wrote still replays whole.
func TestAppendScratchCapped(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenLoad(t, dir)
	if err := s.Append(testRecords()...); err != nil {
		t.Fatal(err)
	}
	if cap(s.buf) == 0 || cap(s.payload) == 0 {
		t.Fatal("small append scratch was not kept for reuse")
	}
	body := bytes.Repeat([]byte("x"), maxScratch+1)
	if err := s.Append(Record{Kind: KindSubmission, Relay: "bw0", Round: 3, Version: 1, Unix: 1700001200, Body: body}); err != nil {
		t.Fatal(err)
	}
	if cap(s.buf) > maxScratch || cap(s.payload) > maxScratch {
		t.Fatalf("append kept %d+%d B of scratch, cap %d", cap(s.buf), cap(s.payload), maxScratch)
	}
	st := wantState()
	st.Apply(Record{Kind: KindSubmission, Relay: "bw0", Round: 3, Version: 1, Unix: 1700001200, Body: body})
	if err := s.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	if cap(s.buf) > maxScratch || cap(s.payload) > maxScratch {
		t.Fatalf("checkpoint kept %d+%d B of scratch, cap %d", cap(s.buf), cap(s.payload), maxScratch)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := mustOpenLoad(t, dir)
	defer s2.Close()
	checkState(t, got, st)
}
