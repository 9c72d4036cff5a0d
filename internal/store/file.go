package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// On-disk layout: a state directory holds exactly two live files plus
// transient *.tmp staging files (removed on Open).
//
//	snapshot  header | one CRC frame holding the encoded State
//	wal       header | CRC frames, one mutation Record each, appended
//
// Both headers are 16 bytes: 6-byte magic, uint16 format version, uint64
// generation, all little-endian. A frame is uint32 payload length,
// uint32 CRC-32C of the payload, then the payload. Checkpoint writes the
// snapshot to a tmp file and renames it into place, then rotates the WAL
// the same way, bumping the shared generation — so every crash point
// leaves either the old consistent pair, or a new snapshot with a stale
// lower-generation WAL that Load discards because its records are
// already folded into the snapshot.
const (
	snapMagic = "FFSNAP"
	walMagic  = "FFWAL\x00"

	// FormatVersion is the current snapshot/WAL format. Readers accept
	// files up to and including this version (older files decode with
	// missing fields zero, per the codec's extensibility rules) and
	// refuse newer ones with ErrVersion rather than misreading them.
	// Version 2 added the per-BWAuth submissions section (KindSubmission
	// records and the snapshot's trailing submissions map); version-1
	// files read back with an empty submissions map.
	FormatVersion = 2

	// SnapshotFile and WALFile are the live file names inside a state
	// directory.
	SnapshotFile = "snapshot"
	WALFile      = "wal"

	headerSize = 16
	frameSize  = 8 // length + CRC, before the payload
	// maxFrame bounds a single frame so a corrupt length field cannot
	// drive a multi-gigabyte allocation during replay.
	maxFrame = 1 << 30
)

var (
	// ErrVersion marks a state file written by a newer flashflow than
	// this binary understands; upgrade the binary instead of deleting
	// state.
	ErrVersion = errors.New("store: state file format is newer than this binary")
	// ErrCorrupt marks damage the torn-tail rule cannot absorb: a bad
	// snapshot, a mangled header, or a CRC-valid record that fails to
	// decode.
	ErrCorrupt = errors.New("store: corrupt state file")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a FileStore.
type Options struct {
	// NoSync skips fsync on appends and checkpoints. Benchmarks and
	// tests use it; a production coordinator should not, since an append
	// the OS still holds in its page cache is exactly what a power loss
	// eats.
	NoSync bool
}

// FileStore is the production Store: snapshot + WAL in one directory.
// Append is safe for concurrent use; Load/Checkpoint/Close follow the
// Store contract (round goroutine only).
type FileStore struct {
	dir  string
	opts Options

	mu     sync.Mutex
	wal    *os.File
	gen    uint64
	loaded bool
	closed bool
	// buf and payload are append scratch, reused across calls so a
	// steady round's WAL traffic does not allocate per record. A call
	// that grew them past maxScratch (a round's whole batch, a
	// snapshot) drops them on return: that high-water mark would
	// otherwise stay live between rounds.
	buf     []byte
	payload []byte
}

// maxScratch bounds the append scratch a FileStore keeps between calls.
const maxScratch = 1 << 20

// trimScratch drops scratch a call grew past maxScratch.
func (s *FileStore) trimScratch() {
	if cap(s.buf) > maxScratch {
		s.buf = nil
	}
	if cap(s.payload) > maxScratch {
		s.payload = nil
	}
}

// Open prepares a state directory (creating it if needed) and removes
// staging files a crashed checkpoint may have left. It touches neither
// live file; call Load to recover state before appending.
func Open(dir string, opts Options) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, name := range []string{SnapshotFile, WALFile} {
		// A leftover tmp file is an interrupted checkpoint that never
		// renamed into place; its contents are unreachable by design.
		_ = os.Remove(filepath.Join(dir, name+".tmp"))
	}
	return &FileStore{dir: dir, opts: opts}, nil
}

// Dir returns the state directory path.
func (s *FileStore) Dir() string { return s.dir }

func (s *FileStore) snapPath() string { return filepath.Join(s.dir, SnapshotFile) }
func (s *FileStore) walPath() string  { return filepath.Join(s.dir, WALFile) }

// appendHeader appends a 16-byte file header.
func appendHeader(buf []byte, magic string, gen uint64) []byte {
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, FormatVersion)
	return binary.LittleEndian.AppendUint64(buf, gen)
}

// parseHeader validates a file header and returns its generation.
func parseHeader(p []byte, magic, path string) (gen uint64, err error) {
	if len(p) < headerSize || string(p[:len(magic)]) != magic {
		return 0, fmt.Errorf("%w: %s: bad header", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint16(p[len(magic):]); v > FormatVersion {
		return 0, fmt.Errorf("%w: %s: format version %d, this binary reads up to %d", ErrVersion, path, v, FormatVersion)
	}
	return binary.LittleEndian.Uint64(p[8:headerSize]), nil
}

// appendFrame wraps payload in a length+CRC frame.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// readFrame extracts the frame starting at p, returning its payload and
// the remainder. ok=false means the bytes from p on are a torn or
// corrupt tail: incomplete header, impossible length, short payload, or
// CRC mismatch — everything a crash mid-append can leave behind.
func readFrame(p []byte) (payload, rest []byte, ok bool) {
	if len(p) < frameSize {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(p)
	if n > maxFrame || uint64(len(p)) < frameSize+uint64(n) {
		return nil, nil, false
	}
	payload = p[frameSize : frameSize+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(p[4:]) {
		return nil, nil, false
	}
	return payload, p[frameSize+int(n):], true
}

// Load recovers the directory's state: the snapshot (if any) with the
// matching-generation WAL replayed on top. A torn WAL tail is truncated
// in place; a WAL whose generation trails the snapshot's (crash between
// the two checkpoint renames) is discarded and re-created. After Load
// the WAL is open for appends.
func (s *FileStore) Load() (*State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: load after close")
	}
	if s.loaded {
		return nil, fmt.Errorf("store: Load called twice")
	}

	st := NewState()
	s.gen = 1
	if raw, err := os.ReadFile(s.snapPath()); err == nil {
		gen, err := parseHeader(raw, snapMagic, s.snapPath())
		if err != nil {
			return nil, err
		}
		payload, rest, ok := readFrame(raw[headerSize:])
		if !ok || len(rest) != 0 {
			// The snapshot is written whole and renamed into place, so a
			// bad frame is disk damage, not a crash artifact.
			return nil, fmt.Errorf("%w: %s: bad snapshot frame", ErrCorrupt, s.snapPath())
		}
		if st, err = decodeState(payload); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, s.snapPath(), err)
		}
		s.gen = gen
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}

	raw, err := os.ReadFile(s.walPath())
	switch {
	case os.IsNotExist(err):
		if err := s.writeWALHeader(); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("store: read wal: %w", err)
	default:
		walGen, err := parseHeader(raw, walMagic, s.walPath())
		if err != nil {
			return nil, err
		}
		switch {
		case walGen > s.gen:
			// The WAL only rotates forward after its snapshot landed; a
			// newer WAL means the snapshot it depends on is gone.
			return nil, fmt.Errorf("%w: %s: wal generation %d without snapshot generation %d", ErrCorrupt, s.walPath(), walGen, s.gen)
		case walGen < s.gen:
			// Stale WAL from before the snapshot rename: every record in
			// it is already folded into the snapshot. Replaying would
			// double-apply anomaly deltas, so start a fresh log instead.
			if err := s.writeWALHeader(); err != nil {
				return nil, err
			}
		default:
			good := headerSize
			rest := raw[headerSize:]
			for len(rest) > 0 {
				payload, next, ok := readFrame(rest)
				if !ok {
					break
				}
				rec, err := decodeRecord(payload)
				if err != nil {
					return nil, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, s.walPath(), good, err)
				}
				st.Apply(rec)
				good += frameSize + len(payload)
				rest = next
			}
			if good < len(raw) {
				// Torn tail: the crash interrupted an append. Drop the
				// partial record so the next append starts on a frame
				// boundary.
				if err := os.Truncate(s.walPath(), int64(good)); err != nil {
					return nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
				}
			}
		}
	}

	if s.wal == nil {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	s.loaded = true
	return st, nil
}

// writeWALHeader atomically installs a fresh, empty WAL at the current
// generation and opens it for appends.
func (s *FileStore) writeWALHeader() error {
	tmp := s.walPath() + ".tmp"
	if err := s.writeFileSync(tmp, appendHeader(nil, walMagic, s.gen)); err != nil {
		return err
	}
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	if err := os.Rename(tmp, s.walPath()); err != nil {
		return fmt.Errorf("store: install wal: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	return s.openWAL()
}

func (s *FileStore) openWAL() error {
	f, err := os.OpenFile(s.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open wal for append: %w", err)
	}
	s.wal = f
	return nil
}

// Append frames and durably writes the records as one batch: one write,
// one fsync, regardless of batch size.
func (s *FileStore) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append after close")
	}
	if !s.loaded {
		return fmt.Errorf("store: append before Load")
	}
	defer s.trimScratch()
	s.buf = s.buf[:0]
	for _, rec := range recs {
		s.payload = appendRecord(s.payload[:0], rec)
		s.buf = appendFrame(s.buf, s.payload)
	}
	if _, err := s.wal.Write(s.buf); err != nil {
		return fmt.Errorf("store: append wal: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: sync wal: %w", err)
		}
	}
	return nil
}

// Checkpoint writes st as the new snapshot and rotates the WAL, both via
// tmp-file-plus-rename so every crash point leaves a recoverable pair.
func (s *FileStore) Checkpoint(st *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: checkpoint after close")
	}
	if !s.loaded {
		return fmt.Errorf("store: checkpoint before Load")
	}
	gen := s.gen + 1
	defer s.trimScratch()

	buf := appendHeader(s.buf[:0], snapMagic, gen)
	s.payload = appendState(s.payload[:0], st)
	buf = appendFrame(buf, s.payload)
	tmp := s.snapPath() + ".tmp"
	if err := s.writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	// The snapshot now owns everything the old WAL recorded; from here a
	// crash recovers via the gen check (stale WAL discarded).
	s.gen = gen
	s.buf = buf[:0]
	return s.writeWALHeader()
}

// Close syncs and closes the WAL handle. It does not checkpoint — the
// coordinator checkpoints on shutdown before closing.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	var err error
	if !s.opts.NoSync {
		err = s.wal.Sync()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

// writeFileSync writes data to path and fsyncs it (unless NoSync).
func (s *FileStore) writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: sync %s: %w", path, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs the state directory so renames are durable.
func (s *FileStore) syncDir() error {
	if s.opts.NoSync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
