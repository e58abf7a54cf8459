// Package journal is the durability substrate for long experiment runs:
// an on-disk checkpoint journal that records completed trial shards so a
// crashed, killed, or deadline-aborted batch can resume instead of
// recomputing everything.
//
// A journal is a directory of segment files. The segment being written
// carries the ".active" suffix; sealing — on Checkpoint, Close, or the
// next Open after a crash — fsyncs the file and renames it to the
// ".jseg" suffix, so the rename is the atomic commit point of segment
// rotation (the same temp-file+rename discipline cli.AtomicWriteFile
// applies to result artifacts). Every segment starts with a validated
// header (magic, schema version, and the batch fingerprint, checked at
// load time like the internal/trace schema), and every record is
// length-prefixed and CRC-checksummed.
//
// Crash semantics follow from the format:
//
//   - Records are written with a single unbuffered write, so a killed
//     process loses at most the record in flight, never a completed one.
//   - A torn tail (fewer bytes than the last record's length prefix
//     promises) can only occur in the final segment — the one being
//     appended when the process died. Load tolerates it: the valid
//     prefix is kept, the tail dropped and recomputed on resume.
//   - A checksum mismatch with the full record present is corruption,
//     not a crash artifact, and is rejected with ErrCorrupt — resuming
//     from bytes that lie would silently break the repository's
//     determinism contract.
//   - Two records for the same shard index must carry identical
//     payloads (shard results are pure functions of the trial index);
//     divergent duplicates are rejected as corruption too.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// SchemaVersion is the current segment schema version; Open rejects
// segments whose version is newer than this build understands.
const SchemaVersion = 1

// magic identifies a journal segment file.
const magic = "SYNJ"

// maxRecordBytes bounds a record's payload length; a larger length
// prefix is structural corruption, not a big record.
const maxRecordBytes = 1 << 30

// Typed load failures, so callers (and tests) can tell "this journal is
// from a different run" from "these bytes are damaged" from "you forgot
// -resume".
var (
	// ErrCorrupt marks structural damage: a bad magic, a checksum
	// mismatch on a fully-present record, a torn tail in a non-final
	// segment, or divergent duplicate shards.
	ErrCorrupt = errors.New("journal: corrupt")
	// ErrFingerprint marks a journal written by a different batch
	// configuration than the one resuming from it.
	ErrFingerprint = errors.New("journal: fingerprint mismatch")
	// ErrExists marks a non-empty journal directory opened without
	// Resume — refusing to silently mix two runs' shards.
	ErrExists = errors.New("journal: directory already holds a journal (pass -resume to continue it, or choose a fresh -checkpoint dir)")
)

// Options configures Open.
type Options struct {
	// Dir is the journal directory (created if missing).
	Dir string
	// Fingerprint identifies the batch (config + seed + size); segments
	// written under a different fingerprint are rejected at load time.
	Fingerprint string
	// Resume permits loading shards from an existing journal. Without
	// it, Open of a non-empty directory fails with ErrExists.
	Resume bool
}

// Journal is an open checkpoint journal. Append and Checkpoint are safe
// for concurrent use by the trial workers and the -deadline watchdog.
type Journal struct {
	mu          sync.Mutex
	dir         string
	fingerprint string

	shards  map[int][]byte // loaded at Open
	loaded  int            // records recovered from disk
	dups    int            // identical duplicate records dropped at load
	torn    bool           // a torn tail was dropped at load
	appends int            // records appended this session

	seq    int // next segment number
	active *os.File
	closed bool
}

// record is one framed journal entry.
type record struct {
	index   int
	payload []byte
}

// Open creates or resumes the journal at o.Dir. On resume it validates
// every segment (header, checksums, duplicate consistency), seals the
// segment left active by a crash — rewriting it without any torn tail
// via temp-file+rename — and returns with the recovered shards
// available through Shard/Shards.
func Open(o Options) (*Journal, error) {
	if o.Dir == "" {
		return nil, errors.New("journal: empty directory")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	names, err := segmentNames(o.Dir)
	if err != nil {
		return nil, err
	}
	if len(names) > 0 && !o.Resume {
		return nil, fmt.Errorf("%w: %s", ErrExists, o.Dir)
	}
	j := &Journal{
		dir:         o.Dir,
		fingerprint: o.Fingerprint,
		shards:      map[int][]byte{},
		seq:         1,
	}
	for i, name := range names {
		path := filepath.Join(o.Dir, name)
		last := i == len(names)-1
		recs, torn, err := loadSegment(path, o.Fingerprint, last)
		if err != nil {
			return nil, err
		}
		j.torn = j.torn || torn
		for _, r := range recs {
			if prev, ok := j.shards[r.index]; ok {
				if string(prev) != string(r.payload) {
					return nil, fmt.Errorf("%w: shard %d recorded twice with different payloads in %s", ErrCorrupt, r.index, path)
				}
				j.dups++
				continue
			}
			j.shards[r.index] = r.payload
			j.loaded++
		}
		if n, ok := segmentSeq(name); ok && n >= j.seq {
			j.seq = n + 1
		}
		if strings.HasSuffix(name, activeSuffix) {
			// A crash left this segment open. Re-seal its valid prefix
			// through a temp file so the rename is the commit point and
			// the torn tail is gone for good.
			if err := resealSegment(path, o.Fingerprint, recs); err != nil {
				return nil, err
			}
		}
	}
	return j, nil
}

const (
	sealedSuffix = ".jseg"
	activeSuffix = ".active"
)

// segmentNames lists the journal's segment files in sequence order.
func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, sealedSuffix) || strings.HasSuffix(name, activeSuffix) {
			names = append(names, name)
		}
	}
	// Sequence numbers are zero-padded, so lexical order is numeric
	// order; an .active segment always carries the highest sequence.
	sort.Strings(names)
	return names, nil
}

// segmentSeq extracts the sequence number from a segment file name.
func segmentSeq(name string) (int, bool) {
	name = strings.TrimSuffix(strings.TrimSuffix(name, sealedSuffix), activeSuffix)
	name = strings.TrimPrefix(name, "seg-")
	var n int
	if _, err := fmt.Sscanf(name, "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

func segmentName(seq int, suffix string) string {
	return fmt.Sprintf("seg-%08d%s", seq, suffix)
}

// Shard returns the recovered payload for trial index i, if the journal
// holds one.
func (j *Journal) Shard(i int) ([]byte, bool) {
	b, ok := j.shards[i]
	return b, ok
}

// Shards returns the recovered shard map (do not mutate).
func (j *Journal) Shards() map[int][]byte { return j.shards }

// Loaded returns the number of distinct shards recovered at Open.
func (j *Journal) Loaded() int { return j.loaded }

// Duplicates returns the identical duplicate records dropped at Open.
func (j *Journal) Duplicates() int { return j.dups }

// Torn reports whether Open dropped a torn tail (a crash mid-append).
func (j *Journal) Torn() bool { return j.torn }

// Appends returns the records appended this session.
func (j *Journal) Appends() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Append records one completed shard. The record is framed, checksummed,
// and written with a single write call, so a kill can tear at most this
// record — never an earlier one.
func (j *Journal) Append(index int, payload []byte) error {
	if index < 0 {
		return fmt.Errorf("journal: negative shard index %d", index)
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("journal: shard %d payload %d bytes exceeds the %d-byte record cap", index, len(payload), maxRecordBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: append after Close")
	}
	if j.active == nil {
		if err := j.openActiveLocked(); err != nil {
			return err
		}
	}
	if _, err := j.active.Write(frameRecord(index, payload)); err != nil {
		return fmt.Errorf("journal: append shard %d: %w", index, err)
	}
	j.appends++
	return nil
}

// openActiveLocked starts a new active segment and writes its header.
func (j *Journal) openActiveLocked() error {
	path := filepath.Join(j.dir, segmentName(j.seq, activeSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frameHeader(j.fingerprint)); err != nil {
		f.Close()
		return err
	}
	j.active = f
	j.seq++
	return nil
}

// Checkpoint seals the active segment — fsync, close, rename to the
// sealed suffix — so everything appended so far survives even a host
// crash. The next Append starts a fresh segment. Safe to call from the
// -deadline watchdog concurrently with appends, and idempotent when
// nothing was appended since the last seal.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sealLocked()
}

func (j *Journal) sealLocked() error {
	if j.active == nil {
		return nil
	}
	f := j.active
	j.active = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(path, strings.TrimSuffix(path, activeSuffix)+sealedSuffix); err != nil {
		return err
	}
	return syncDir(j.dir)
}

// Close seals the active segment and marks the journal finished.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.sealLocked()
}

// frameHeader encodes a segment header: magic, version, fingerprint.
func frameHeader(fingerprint string) []byte {
	buf := make([]byte, 0, 4+4+4+len(fingerprint))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, SchemaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fingerprint)))
	buf = append(buf, fingerprint...)
	return buf
}

// recordHeaderLen is the fixed frame header: payload length, header
// CRC, index, payload CRC.
const recordHeaderLen = 4 + 4 + 8 + 4

// frameRecord encodes one record. The frame header carries its own
// CRC32 over (length || index) so that a corrupted length field is
// detected as corruption instead of masquerading as a torn tail; the
// payload CRC over (index || payload) then guards the data itself.
func frameRecord(index int, payload []byte) []byte {
	buf := make([]byte, 0, recordHeaderLen+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, headerCRC(uint32(len(payload)), uint64(index)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(index))
	buf = binary.LittleEndian.AppendUint32(buf, recordCRC(uint64(index), payload))
	buf = append(buf, payload...)
	return buf
}

func headerCRC(plen uint32, index uint64) uint32 {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:4], plen)
	binary.LittleEndian.PutUint64(b[4:12], index)
	return crc32.ChecksumIEEE(b[:])
}

func recordCRC(index uint64, payload []byte) uint32 {
	var ix [8]byte
	binary.LittleEndian.PutUint64(ix[:], index)
	c := crc32.NewIEEE()
	c.Write(ix[:])
	c.Write(payload)
	return c.Sum32()
}

// loadSegment reads and validates one segment file. tolerateTorn is set
// for the final segment only — the one a crash can legitimately tear.
func loadSegment(path, fingerprint string, tolerateTorn bool) ([]record, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	recs, torn, err := parseSegment(data, fingerprint, tolerateTorn)
	if err != nil {
		return nil, false, fmt.Errorf("%w (segment %s)", err, path)
	}
	return recs, torn, nil
}

// parseSegment decodes segment bytes. With tolerateTorn, an incomplete
// trailing record — or an incomplete header with no records at all — is
// dropped and reported via the torn flag instead of failing; a checksum
// mismatch on a complete record is always ErrCorrupt.
func parseSegment(data []byte, fingerprint string, tolerateTorn bool) ([]record, bool, error) {
	hdrLen, err := checkHeader(data, fingerprint)
	if err != nil {
		if tolerateTorn && errors.Is(err, errTornHeader) {
			// Crash while creating the segment: nothing was recorded.
			return nil, true, nil
		}
		return nil, false, err
	}
	var recs []record
	off := hdrLen
	for off < len(data) {
		rest := data[off:]
		if len(rest) < recordHeaderLen {
			if tolerateTorn {
				return recs, true, nil
			}
			return nil, false, fmt.Errorf("%w: torn record frame at offset %d in a sealed non-final segment", ErrCorrupt, off)
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		hcrc := binary.LittleEndian.Uint32(rest[4:8])
		index := binary.LittleEndian.Uint64(rest[8:16])
		pcrc := binary.LittleEndian.Uint32(rest[16:20])
		if headerCRC(plen, index) != hcrc {
			return nil, false, fmt.Errorf("%w: frame header checksum mismatch at offset %d", ErrCorrupt, off)
		}
		if plen > maxRecordBytes {
			return nil, false, fmt.Errorf("%w: record at offset %d claims %d payload bytes (cap %d)", ErrCorrupt, off, plen, maxRecordBytes)
		}
		if len(rest) < recordHeaderLen+int(plen) {
			if tolerateTorn {
				return recs, true, nil
			}
			return nil, false, fmt.Errorf("%w: torn record payload at offset %d in a sealed non-final segment", ErrCorrupt, off)
		}
		payload := rest[recordHeaderLen : recordHeaderLen+int(plen)]
		if recordCRC(index, payload) != pcrc {
			return nil, false, fmt.Errorf("%w: payload checksum mismatch on shard %d at offset %d", ErrCorrupt, index, off)
		}
		if index > uint64(1<<48) {
			return nil, false, fmt.Errorf("%w: implausible shard index %d at offset %d", ErrCorrupt, index, off)
		}
		recs = append(recs, record{index: int(index), payload: append([]byte(nil), payload...)})
		off += recordHeaderLen + int(plen)
	}
	return recs, false, nil
}

// errTornHeader marks a header cut short by a crash during segment
// creation; only the final segment may carry it.
var errTornHeader = errors.New("journal: torn segment header")

// checkHeader validates a segment header and returns its length.
func checkHeader(data []byte, fingerprint string) (int, error) {
	if len(data) < 12 {
		return 0, errTornHeader
	}
	if string(data[0:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, data[0:4], magic)
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version == 0 || version > SchemaVersion {
		return 0, fmt.Errorf("%w: segment schema version %d not supported by this build (current v%d)", ErrCorrupt, version, SchemaVersion)
	}
	fpLen := binary.LittleEndian.Uint32(data[8:12])
	if fpLen > 1<<16 {
		return 0, fmt.Errorf("%w: implausible fingerprint length %d", ErrCorrupt, fpLen)
	}
	if len(data) < 12+int(fpLen) {
		return 0, errTornHeader
	}
	fp := string(data[12 : 12+fpLen])
	if fp != fingerprint {
		return 0, fmt.Errorf("%w: journal was written for %q, this batch is %q", ErrFingerprint, fp, fingerprint)
	}
	return 12 + int(fpLen), nil
}

// resealSegment rewrites a crashed active segment's valid records to a
// temp file and renames it into place as sealed — the torn tail is
// discarded atomically.
func resealSegment(activePath, fingerprint string, recs []record) error {
	sealed := strings.TrimSuffix(activePath, activeSuffix) + sealedSuffix
	if len(recs) == 0 {
		// Nothing recoverable; drop the husk instead of sealing an
		// empty segment.
		if err := os.Remove(activePath); err != nil {
			return err
		}
		return syncDir(filepath.Dir(activePath))
	}
	err := WriteFileAtomic(sealed, func(w io.Writer) error {
		if _, err := w.Write(frameHeader(fingerprint)); err != nil {
			return err
		}
		for _, r := range recs {
			if _, err := w.Write(frameRecord(r.index, r.payload)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return os.Remove(activePath)
}

// Slug maps an arbitrary batch scope string to a filesystem-safe
// directory name, so journals for different batches of one run nest
// under one -checkpoint root.
//
// The mapping is injective: letters, digits, '-' and '.' pass through,
// '_' escapes to "__", and every other rune becomes "_u" plus six hex
// digits of its code point. Two distinct scopes therefore can never
// slug to the same directory — the old lossy mapping sent both "a/b"
// and "a_b" to "a_b", silently sharing one journal dir until the
// fingerprint check failed at resume time with a message naming
// neither scope.
func Slug(scope string) string {
	var b strings.Builder
	for _, r := range scope {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			b.WriteRune(r)
		case r == '_':
			b.WriteString("__")
		default:
			fmt.Fprintf(&b, "_u%06x", r)
		}
	}
	if b.Len() == 0 {
		return "batch"
	}
	return b.String()
}
