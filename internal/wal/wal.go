// Package wal implements a durable, segmented write-ahead log with
// periodic snapshots — the persistence layer under the market store's
// flex-offer lifecycle (internal/market) and under the scheduler's
// decision ledger (internal/sched), kept free of any dependency beyond
// the standard library so it can be reasoned about (and fuzzed) in
// isolation. Payloads are opaque bytes: each consumer brings its own
// record encoding and replays with its own fold.
//
// # On-disk format
//
// A log directory holds segment files and snapshot files:
//
//	wal-<firstLSN:016x>.log    append-only record segments
//	snap-<lsn:016x>.snap       one framed snapshot payload each
//
// Every record — in segments and snapshots alike — is length-prefixed and
// checksummed:
//
//	+----------------+----------------+=================+
//	| length  uint32 | CRC32C  uint32 | payload (length)|
//	| little-endian  | of the payload | opaque bytes    |
//	+----------------+----------------+=================+
//
// Records are numbered by a monotonically increasing log sequence number
// (LSN); a segment is named after the LSN of its first record, so the
// record at any LSN can be located without an index. A snapshot named
// snap-<lsn> captures all state produced by records with LSN < lsn;
// recovery loads the newest valid snapshot and replays only the tail.
//
// # Failure model
//
// Open tolerates exactly the damage a crash can cause — a torn or
// truncated record at the very end of the newest segment, which is cut
// off — and refuses everything else: a corrupt record that is followed by
// a valid one cannot be the product of a torn tail-append, so recovery
// stops with ErrCorrupt rather than silently dropping acknowledged
// records. Failed appends are rolled back in place (the partial bytes are
// truncated away) so one disk hiccup does not poison the log; when even
// the rollback fails, the log marks itself broken and refuses further
// appends instead of writing after garbage.
//
// # Durability policy
//
// The fsync policy is configurable: SyncAlways fsyncs every append before
// acknowledging it (crash loses nothing acknowledged), SyncEvery fsyncs on
// a background interval (bounded loss window, much higher throughput), and
// SyncNever leaves flushing to the operating system. Closing the log
// always flushes. docs/ARCHITECTURE.md discusses the trade-offs.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Framing and sizing constants of the on-disk format.
const (
	// headerSize is the per-record frame overhead: length + CRC32C.
	headerSize = 8
	// MaxRecordBytes bounds one record's payload; larger appends are
	// refused and larger on-disk length fields are treated as corruption.
	MaxRecordBytes = 16 << 20
	// DefaultSegmentBytes is the segment-rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 4 << 20
	// DefaultSyncInterval is the background fsync cadence for SyncEvery
	// when Options.Interval is zero.
	DefaultSyncInterval = 100 * time.Millisecond
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the checksum every record carries.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors.
var (
	// ErrCorrupt reports a record that fails its checksum or framing in a
	// position a torn tail-append cannot explain.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrBroken reports a log that refused further appends after an
	// unrecoverable write failure.
	ErrBroken = errors.New("wal: log broken by earlier write failure")
	// ErrTooLarge reports an append exceeding MaxRecordBytes.
	ErrTooLarge = errors.New("wal: record too large")
	// ErrNoSnapshot reports that a directory holds no valid snapshot.
	ErrNoSnapshot = errors.New("wal: no snapshot")
)

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before it returns: nothing
	// acknowledged is ever lost to a crash.
	SyncAlways SyncPolicy = iota
	// SyncEvery fsyncs on a background interval: a crash loses at most
	// the appends of the last interval.
	SyncEvery
	// SyncNever leaves flushing to the operating system's page cache.
	SyncNever
)

// ParseSyncPolicy parses the -fsync flag values: "always", "interval",
// "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncEvery, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// String implements fmt.Stringer with the ParseSyncPolicy spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncEvery:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return "unknown"
	}
}

// Options configures Open.
type Options struct {
	// Dir is the log directory, created when missing.
	Dir string
	// SegmentBytes is the rotation threshold; DefaultSegmentBytes when
	// zero or negative.
	SegmentBytes int64
	// Policy selects the fsync policy; the zero value is SyncAlways.
	Policy SyncPolicy
	// Interval is the background fsync cadence for SyncEvery;
	// DefaultSyncInterval when zero or negative.
	Interval time.Duration
	// FS is the filesystem the log lives on; DiskFS when nil.
	FS FS
}

// normalized fills the option defaults.
func (o Options) normalized() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Interval <= 0 {
		o.Interval = DefaultSyncInterval
	}
	if o.FS == nil {
		o.FS = DiskFS
	}
	return o
}

// RecoveryInfo reports what Open found and repaired.
type RecoveryInfo struct {
	// Segments is the number of segment files on disk.
	Segments int
	// Records is the number of valid records across all segments.
	Records uint64
	// TornTail reports whether a torn or truncated final record was cut
	// off the newest segment.
	TornTail bool
	// TornBytes is the number of trailing bytes discarded with it.
	TornBytes int64
	// NextLSN is the sequence number the next append will receive.
	NextLSN uint64
}

// Stats is a point-in-time snapshot of the log's counters, the source of
// the wal_* metric families.
type Stats struct {
	// Appends is the number of records appended since Open.
	Appends uint64
	// Fsyncs is the number of fsync calls issued since Open.
	Fsyncs uint64
	// Bytes is the number of record bytes (frames included) written
	// since Open.
	Bytes uint64
	// Segments is the current number of segment files.
	Segments int
	// NextLSN is the sequence number the next append will receive.
	NextLSN uint64
	// Snapshots is the number of snapshots written since Open.
	Snapshots uint64
	// SnapshotLSN is the LSN of the newest snapshot seen or written.
	SnapshotLSN uint64
}

// segment locates one on-disk segment file.
type segment struct {
	base uint64 // LSN of the segment's first record
	name string // file name within the directory
}

// Log is an append-only record log. All methods are safe for concurrent
// use; appends are serialised and numbered by LSN.
type Log struct {
	opts Options

	// mu protects every mutable field below.
	mu       sync.Mutex
	segments []segment
	cur      File  // newest segment, open in append mode
	curSize  int64 // bytes in cur
	nextLSN  uint64
	dirty    bool  // appended since the last fsync
	broken   error // non-nil once the log refuses appends
	closed   bool
	appends  uint64
	fsyncs   uint64
	bytes    uint64
	snaps    uint64
	snapLSN  uint64

	stopOnce sync.Once
	stopc    chan struct{} // closes to stop the SyncEvery flusher
	donec    chan struct{} // closed when the flusher exits
}

// Open scans (and, for a torn tail, repairs) the log directory, then
// opens the newest segment for appending. The returned RecoveryInfo
// describes what was found. Any corruption a torn tail-append cannot
// explain fails Open with ErrCorrupt.
func Open(opts Options) (*Log, RecoveryInfo, error) {
	opts = opts.normalized()
	if opts.Dir == "" {
		return nil, RecoveryInfo{}, errors.New("wal: empty directory")
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: create dir: %w", err)
	}
	segs, err := listSegments(opts.FS, opts.Dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}

	var info RecoveryInfo
	l := &Log{opts: opts}
	if len(segs) > 0 {
		l.nextLSN = segs[0].base
	}
	var sc segmentScanner
	for i, seg := range segs {
		path := filepath.Join(opts.Dir, seg.name)
		if seg.base != l.nextLSN {
			return nil, info, fmt.Errorf("%w: segment %s starts at lsn %d, want %d",
				ErrCorrupt, seg.name, seg.base, l.nextLSN)
		}
		n, valid, scanErr, err := sc.scan(opts.FS, path, nil)
		if err != nil {
			return nil, info, fmt.Errorf("wal: read %s: %w", seg.name, err)
		}
		l.nextLSN += n
		info.Records += n
		l.curSize = valid
		if scanErr == nil {
			continue
		}
		if i != len(segs)-1 {
			return nil, info, fmt.Errorf("%w: segment %s: %v", ErrCorrupt, seg.name, scanErr)
		}
		// Damage in the newest segment: a torn tail-append explains a bad
		// final record, but never a bad record with a valid one after it.
		// Only this rare path reads the segment whole, to look past the
		// damage.
		data, err := readFile(opts.FS, path)
		if err != nil {
			return nil, info, fmt.Errorf("wal: read %s: %w", seg.name, err)
		}
		if int64(len(data)) < valid {
			return nil, info, fmt.Errorf("wal: %s shrank to %d bytes while it was read", seg.name, len(data))
		}
		if recordAfter(data[valid:]) {
			return nil, info, fmt.Errorf("%w: segment %s: %v is followed by a valid record; refusing to drop interior data",
				ErrCorrupt, seg.name, scanErr)
		}
		if err := truncateFile(opts.FS, path, valid); err != nil {
			return nil, info, fmt.Errorf("wal: truncate torn tail of %s: %w", seg.name, err)
		}
		info.TornTail = true
		info.TornBytes = int64(len(data)) - valid
	}
	l.segments = segs
	if len(l.segments) == 0 {
		if err := l.rotateLocked(); err != nil {
			return nil, info, err
		}
	} else {
		// curSize is the newest segment's valid length from the scan: its
		// whole size, or the size it was just truncated to.
		last := l.segments[len(l.segments)-1]
		f, err := opts.FS.OpenFile(filepath.Join(opts.Dir, last.name), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, info, fmt.Errorf("wal: open %s: %w", last.name, err)
		}
		l.cur = f
	}
	info.Segments = len(l.segments)
	info.NextLSN = l.nextLSN

	if opts.Policy == SyncEvery {
		l.stopc = make(chan struct{})
		l.donec = make(chan struct{})
		go l.flushLoop()
	}
	return l, info, nil
}

// listSegments collects the directory's segment files sorted by base LSN.
func listSegments(fs FS, dir string) ([]segment, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		base, ok := parseSegmentName(name)
		if !ok {
			continue
		}
		segs = append(segs, segment{base: base, name: name})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// segmentName renders the file name of the segment starting at base.
func segmentName(base uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix)
}

// parseSegmentName extracts the base LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	base, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// truncateFile cuts a file down to size through fs.
func truncateFile(fs FS, path string, size int64) error {
	f, err := fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// frameRecord wraps payload in the on-disk record frame.
func frameRecord(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	copy(buf[headerSize:], payload)
	return buf
}

// unframeRecord parses data as exactly one framed record and reports
// whether it was intact.
func unframeRecord(data []byte) ([]byte, bool) {
	if len(data) < headerSize {
		return nil, false
	}
	length := binary.LittleEndian.Uint32(data)
	if length > MaxRecordBytes || headerSize+int(length) != len(data) {
		return nil, false
	}
	payload := data[headerSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, false
	}
	return payload, true
}

// scanChunk bounds how far a segment scan grows its payload buffer ahead
// of the bytes it has read, so a damaged length field cannot make it
// allocate MaxRecordBytes for a record the file does not hold.
const scanChunk = 64 << 10

// segmentScanner reads segment files record by record through one
// buffered reader and one payload buffer, both reused from segment to
// segment. The buffer grows to the largest record read, so a scan holds
// one record in memory, not the segment.
type segmentScanner struct {
	br      *bufio.Reader
	payload []byte
}

// scan reads the segment file at path, calling fn (when non-nil) with
// each record's payload, which is valid only during the call. It returns
// the number of valid records, the byte offset up to which the file
// parsed cleanly, and scanErr describing the first bad record or fn's
// error (nil when the whole file parsed). err reports that the file could
// not be read.
func (sc *segmentScanner) scan(fs FS, path string, fn func(payload []byte) error) (n uint64, valid int64, scanErr, err error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	if sc.br == nil {
		sc.br = bufio.NewReaderSize(f, scanChunk)
	} else {
		sc.br.Reset(f)
	}
	var hdr [headerSize]byte
	for {
		m, err := io.ReadFull(sc.br, hdr[:])
		switch {
		case err == io.EOF:
			return n, valid, nil, nil
		case err == io.ErrUnexpectedEOF:
			return n, valid, fmt.Errorf("truncated header at offset %d (%d bytes)", valid, m), nil
		case err != nil:
			return n, valid, nil, err
		}
		length := binary.LittleEndian.Uint32(hdr[:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if length > MaxRecordBytes {
			return n, valid, fmt.Errorf("implausible record length %d at offset %d", length, valid), nil
		}
		payload := sc.payload[:0]
		for len(payload) < int(length) {
			chunk := min(int(length)-len(payload), scanChunk)
			payload = slices.Grow(payload, chunk)
			m, err := io.ReadFull(sc.br, payload[len(payload):len(payload)+chunk])
			payload = payload[:len(payload)+m]
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				sc.payload = payload
				return n, valid, fmt.Errorf("truncated payload at offset %d (want %d bytes, have %d)", valid, length, len(payload)), nil
			}
			if err != nil {
				return n, valid, nil, err
			}
		}
		sc.payload = payload
		if crc32.Checksum(payload, castagnoli) != sum {
			return n, valid, fmt.Errorf("checksum mismatch at offset %d", valid), nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return n, valid, err, nil
			}
		}
		n++
		valid += headerSize + int64(length)
	}
}

// recordAfter reports whether any byte offset in data starts a valid
// framed record — the discriminator between a torn tail (nothing valid
// follows the damage) and interior corruption (an intact record does).
// The checksum makes accidental matches vanishingly unlikely.
func recordAfter(data []byte) bool {
	for off := 1; off+headerSize <= len(data); off++ {
		length := binary.LittleEndian.Uint32(data[off:])
		if length > MaxRecordBytes {
			continue
		}
		end := off + headerSize + int(length)
		if end > len(data) {
			continue
		}
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if crc32.Checksum(data[off+headerSize:end], castagnoli) == sum {
			return true
		}
	}
	return false
}

// Append writes one record and returns its LSN. Under SyncAlways the
// record is fsynced before Append returns. A failed write is rolled back
// so the log stays usable; if the rollback itself fails the log turns
// broken and every later append returns ErrBroken.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(payload), MaxRecordBytes)
	}
	if l.curSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	buf := frameRecord(payload)
	n, err := l.cur.Write(buf)
	if err != nil || n < len(buf) {
		if err == nil {
			err = io.ErrShortWrite
		}
		if n > 0 {
			// Roll the partial record back; the file is in append mode, so
			// after a successful truncate the next write lands cleanly.
			if terr := l.cur.Truncate(l.curSize); terr != nil {
				l.broken = fmt.Errorf("append failed (%v) and rollback failed (%v)", err, terr)
			}
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.curSize += int64(len(buf))
	lsn := l.nextLSN
	l.nextLSN++
	l.appends++
	l.bytes += uint64(len(buf))
	l.dirty = true
	if l.opts.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			// The record is written but not durably; whether it survives a
			// crash is unknown, so the op must not be acknowledged and the
			// log must not accept writes after an unreliable fsync.
			l.broken = err
			return 0, err
		}
	}
	return lsn, nil
}

// rotateLocked syncs and closes the current segment (when present) and
// starts a new one based at the next LSN. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if l.cur != nil {
		if l.dirty {
			if err := l.syncLocked(); err != nil {
				l.broken = err
				return err
			}
		}
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		l.cur = nil
	}
	name := segmentName(l.nextLSN)
	f, err := l.opts.FS.OpenFile(filepath.Join(l.opts.Dir, name), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	l.segments = append(l.segments, segment{base: l.nextLSN, name: name})
	l.cur = f
	l.curSize = 0
	return nil
}

// syncLocked fsyncs the current segment. Callers hold l.mu.
func (l *Log) syncLocked() error {
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncs++
	l.dirty = false
	return nil
}

// Sync flushes any unsynced appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	if !l.dirty {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		l.broken = err
		return err
	}
	return nil
}

// flushLoop is the SyncEvery background flusher.
func (l *Log) flushLoop() {
	defer close(l.donec)
	ticker := time.NewTicker(l.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-ticker.C:
			l.mu.Lock()
			if !l.closed && l.broken == nil && l.dirty {
				if err := l.syncLocked(); err != nil {
					l.broken = err
				}
			}
			l.mu.Unlock()
		}
	}
}

// NextLSN reports the sequence number the next append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:     l.appends,
		Fsyncs:      l.fsyncs,
		Bytes:       l.bytes,
		Segments:    len(l.segments),
		NextLSN:     l.nextLSN,
		Snapshots:   l.snaps,
		SnapshotLSN: l.snapLSN,
	}
}

// ReplayFrom reads every record with LSN >= from, in order, calling fn
// with each. The payload is valid only during the call: the segments are
// read through one reused buffer, so replay holds one record in memory,
// not a segment, and fn must copy what it keeps. An error from fn aborts
// the replay and is returned. ReplayFrom must not run concurrently with
// Append (recovery runs before serving).
func (l *Log) ReplayFrom(from uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var sc segmentScanner
	for i, seg := range l.segments {
		segEnd := l.nextLSN
		if i+1 < len(l.segments) {
			segEnd = l.segments[i+1].base
		}
		if segEnd <= from {
			continue
		}
		lsn := seg.base
		_, _, scanErr, err := sc.scan(l.opts.FS, filepath.Join(l.opts.Dir, seg.name), func(payload []byte) error {
			at := lsn
			lsn++
			if at < from {
				return nil
			}
			return fn(at, payload)
		})
		if err != nil {
			return fmt.Errorf("wal: read %s: %w", seg.name, err)
		}
		if scanErr != nil {
			return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, seg.name, scanErr)
		}
	}
	return nil
}

// Close stops the background flusher, flushes outstanding appends, and
// closes the current segment. Close is idempotent.
func (l *Log) Close() error {
	l.stopOnce.Do(func() {
		if l.stopc != nil {
			close(l.stopc)
			<-l.donec
		}
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.cur != nil {
		if l.dirty && l.broken == nil {
			err = l.syncLocked()
		}
		if cerr := l.cur.Close(); err == nil {
			err = cerr
		}
		l.cur = nil
	}
	return err
}
