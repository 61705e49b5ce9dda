package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
)

// scanRecords walks an in-memory segment record by record, calling fn
// (when non-nil) with each payload. It returns the number of valid
// records, the byte offset up to which the data parsed cleanly, and the
// error describing the first bad record (nil when the whole buffer
// parsed). It is the reference the streaming segmentScanner is held to:
// FuzzWALReplay compares what Open and ReplayFrom recover with it.
func scanRecords(data []byte, fn func(payload []byte) error) (n uint64, valid int, err error) {
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < headerSize {
			return n, off, fmt.Errorf("truncated header at offset %d (%d bytes)", off, rest)
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length > MaxRecordBytes {
			return n, off, fmt.Errorf("implausible record length %d at offset %d", length, off)
		}
		end := off + headerSize + int(length)
		if end > len(data) {
			return n, off, fmt.Errorf("truncated payload at offset %d (want %d bytes, have %d)", off, length, rest-headerSize)
		}
		payload := data[off+headerSize : end]
		if crc32.Checksum(payload, castagnoli) != sum {
			return n, off, fmt.Errorf("checksum mismatch at offset %d", off)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return n, off, err
			}
		}
		n++
		off = end
	}
	return n, off, nil
}

// TestRecoveryReadsInBoundedMemory opens and replays a 4 MiB segment of
// 1 KiB records and holds each pass to less than 1 MB allocated: the
// scan reads through one buffered reader and one reused payload buffer,
// never the segment whole.
func TestRecoveryReadsInBoundedMemory(t *testing.T) {
	const records, size = 4096, 1024
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 64 << 20, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := 0; i < records; i++ {
		binary.LittleEndian.PutUint32(payload, uint32(i))
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments != 1 || st.Bytes < 4<<20 {
		t.Fatalf("wrote %d bytes into %d segments, want at least 4 MiB in one", st.Bytes, st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	allocated := func(pass func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const bound = 1 << 20
	var reopened *Log
	if got := allocated(func() {
		var info RecoveryInfo
		reopened, info, err = Open(Options{Dir: dir, SegmentBytes: 64 << 20, Policy: SyncNever})
		if err == nil && info.Records != records {
			err = fmt.Errorf("recovered %d records, want %d", info.Records, records)
		}
	}); err != nil {
		t.Fatal(err)
	} else if got >= bound {
		t.Errorf("Open of a 4 MiB segment allocated %d bytes, want less than %d", got, bound)
	}
	defer reopened.Close()
	var seen uint32
	if got := allocated(func() {
		err = reopened.ReplayFrom(0, func(lsn uint64, p []byte) error {
			if len(p) != size || binary.LittleEndian.Uint32(p) != uint32(lsn) {
				return fmt.Errorf("record %d replayed wrong", lsn)
			}
			seen++
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	} else if got >= bound {
		t.Errorf("ReplayFrom of a 4 MiB segment allocated %d bytes, want less than %d", got, bound)
	}
	if seen != records {
		t.Fatalf("replayed %d records, want %d", seen, records)
	}
	// The appended size survives the scan: the next record lands after
	// the last one, not over it.
	if lsn, err := reopened.Append([]byte("next")); err != nil || lsn != records {
		t.Fatalf("append after reopen: lsn %d, %v", lsn, err)
	}
}
