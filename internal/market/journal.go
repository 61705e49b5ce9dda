package market

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/obs"
	"repro/internal/wal"
)

// eventKind names one journaled store transition.
type eventKind string

const (
	// evSubmit records offers entering the store (Submit and the accepted
	// subset of SubmitBatch).
	evSubmit eventKind = "submit"
	// evDecide records a single-offer state change: accept, reject, or a
	// deadline expiry observed during accept/assign.
	evDecide eventKind = "decide"
	// evAssign records a successful assignment; replay re-derives the
	// Assignment from the stored start and energies.
	evAssign eventKind = "assign"
	// evExpire records one ExpireOverdue sweep with every expired ID.
	evExpire eventKind = "expire"
)

// event is one journaled transition. It records the applied outcome —
// including the clock value the store used — not the request, so replay
// reconstructs state without re-evaluating deadlines against a new clock.
// Every offer an event touches routes to the same shard, and the event is
// journaled in that shard's WAL stream (evExpire sweeps journal one event
// per touched shard).
type event struct {
	Kind eventKind `json:"kind"`
	At   time.Time `json:"at"`
	// Offers carries the submitted offers of an evSubmit.
	Offers flexoffer.Set `json:"offers,omitempty"`
	// ID addresses the offer of an evDecide or evAssign.
	ID string `json:"id,omitempty"`
	// To is the target state of an evDecide.
	To State `json:"to,omitempty"`
	// Start and Energies reproduce an evAssign's assignment.
	Start    time.Time `json:"start,omitempty"`
	Energies []float64 `json:"energies,omitempty"`
	// IDs lists the offers expired by an evExpire sweep.
	IDs []string `json:"ids,omitempty"`

	// offersRaw holds, for an evSubmit from Submit or SubmitBatch, each
	// offer's JSON (marshalOffer) in Offers' order, so that encode splices
	// the bytes in instead of encoding every offer again. Nothing keeps
	// them after the append.
	offersRaw []json.RawMessage
}

// The one shape of a submit event that encode assembles by hand and
// decodeEvent decodes by hand: submitHead, the time, offersKey, the
// offers separated by commas, then submitTail.
const (
	submitHead = `{"kind":"submit","at":`
	offersKey  = `,"offers":[`
	// ID, To, Energies and IDs are empty and omitted; Start is the zero
	// time, which omitempty does not omit.
	submitTail = `],"start":"0001-01-01T00:00:00Z"}`
)

// encode returns the event's journal payload: exactly the bytes of
// json.Marshal(ev), which replay decodes. A submit event whose offers all
// come encoded is assembled by hand from those bytes, the way
// Record.appendJSON assembles a record. Passing them to json.Marshal as
// json.RawMessage would not save the work, because encoding/json
// re-scans every raw value it writes.
func (ev event) encode() ([]byte, error) {
	if ev.offersRaw == nil || slices.ContainsFunc(ev.offersRaw, func(raw json.RawMessage) bool { return raw == nil }) {
		return json.Marshal(ev)
	}
	n := len(submitHead) + len(`""`) + len(time.RFC3339Nano) + len(offersKey) + len(submitTail)
	for _, raw := range ev.offersRaw {
		n += len(raw) + 1
	}
	buf, err := flexoffer.AppendJSONTime(append(make([]byte, 0, n), submitHead...), ev.At)
	if err != nil {
		return nil, err
	}
	buf = append(buf, offersKey...)
	for i, raw := range ev.offersRaw {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, raw...)
	}
	return append(buf, submitTail...), nil
}

// decodeEvent decodes one journal payload. A submit event in the shape
// encode writes, with offers in the shape flexoffer.AppendJSON writes, is
// decoded by hand (cutSubmitEvent), and hand reports it. Every other
// payload goes to json.Unmarshal, the reference, so what replay accepts,
// the events it decodes and its error texts are json.Unmarshal's.
// FuzzDecodeEvent holds the hand path to it.
func decodeEvent(payload []byte) (ev event, hand bool, err error) {
	if ev, ok := cutSubmitEvent(payload); ok {
		return ev, true, nil
	}
	err = json.Unmarshal(payload, &ev)
	return ev, false, err
}

// cutSubmitEvent decodes a submit event holding at least one offer in
// the one shape encode writes, and reports false for anything else. The
// offers are copied out of data, which ReplayFrom reuses after its
// callback returns.
func cutSubmitEvent(data []byte) (event, bool) {
	rest, ok := bytes.CutPrefix(data, []byte(submitHead))
	if !ok {
		return event{}, false
	}
	ev := event{Kind: evSubmit}
	if ev.At, rest, ok = flexoffer.CutJSONTime(rest); !ok {
		return event{}, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(offersKey)); !ok {
		return event{}, false
	}
	for {
		var f *flexoffer.FlexOffer
		if f, rest, ok = flexoffer.CutJSON(rest); !ok {
			return event{}, false
		}
		ev.Offers = append(ev.Offers, f)
		if rest, ok = bytes.CutPrefix(rest, []byte(",")); !ok {
			break
		}
	}
	if string(rest) != submitTail {
		return event{}, false
	}
	return ev, true
}

// applyEvent replays one journaled event onto the store, bypassing clock
// and deadline checks: the event records an outcome that was already
// acknowledged, so replay must reproduce it verbatim. Its receipts come
// from replayed, not journalLocked: the event is already in the journal.
// Errors mean the journal does not match the state it claims to extend —
// corruption, not a lifecycle violation.
func (s *Store) applyEvent(ev event) error {
	switch ev.Kind {
	case evSubmit:
		for _, f := range ev.Offers {
			if f == nil || f.ID == "" {
				return errors.New("submit event with empty offer")
			}
			sh := s.shardFor(f.ID)
			w := sh.mu.Lock()
			if _, dup := sh.records[f.ID]; dup {
				sh.mu.Unlock()
				return fmt.Errorf("submit event duplicates offer %s", f.ID)
			}
			sh.insertLocked(replayed(w), &Record{Offer: f, State: Offered, SubmittedAt: ev.At})
			sh.mu.Unlock()
		}
	case evDecide:
		sh := s.shardFor(ev.ID)
		w := sh.mu.Lock()
		r, ok := sh.records[ev.ID]
		if !ok {
			sh.mu.Unlock()
			return fmt.Errorf("decide event for unknown offer %s", ev.ID)
		}
		sh.transitionLocked(replayed(w), r, ev.To, ev.At)
		sh.mu.Unlock()
	case evAssign:
		sh := s.shardFor(ev.ID)
		w := sh.mu.Lock()
		r, ok := sh.records[ev.ID]
		if !ok {
			sh.mu.Unlock()
			return fmt.Errorf("assign event for unknown offer %s", ev.ID)
		}
		asg, err := r.Offer.Assign(ev.Start, ev.Energies)
		if err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("assign event for %s does not replay: %v", ev.ID, err)
		}
		r.Assignment = asg
		sh.transitionLocked(replayed(w), r, Assigned, ev.At)
		sh.mu.Unlock()
	case evExpire:
		for _, id := range ev.IDs {
			sh := s.shardFor(id)
			w := sh.mu.Lock()
			r, ok := sh.records[id]
			if !ok {
				sh.mu.Unlock()
				return fmt.Errorf("expire event for unknown offer %s", id)
			}
			sh.transitionLocked(replayed(w), r, Expired, ev.At)
			sh.mu.Unlock()
		}
	default:
		return fmt.Errorf("unknown event kind %q", ev.Kind)
	}
	return nil
}

// shardOfEvent reports which shard every offer the event touches routes
// to, and errors when the event spans shards — an event read from shard
// k's WAL stream must only touch shard k, or the stream was corrupted
// (or written under a different shard count).
func (s *Store) shardOfEvent(ev event) (int, error) {
	ids := make([]string, 0, 1+len(ev.Offers)+len(ev.IDs))
	if ev.ID != "" {
		ids = append(ids, ev.ID)
	}
	for _, f := range ev.Offers {
		if f != nil && f.ID != "" {
			ids = append(ids, f.ID)
		}
	}
	ids = append(ids, ev.IDs...)
	if len(ids) == 0 {
		return -1, nil
	}
	k := s.ShardIndex(ids[0])
	for _, id := range ids[1:] {
		if s.ShardIndex(id) != k {
			return -1, fmt.Errorf("event spans shards (%s routes to %d, %s to %d)", ids[0], k, id, s.ShardIndex(id))
		}
	}
	return k, nil
}

// storeSnapshot is the JSON shape of a full store (or single shard) image.
// encoding/json emits map keys sorted, so marshalling the same logical
// state always yields the same bytes — the property the byte-identical
// recovery tests pin.
type storeSnapshot struct {
	Order   []string           `json:"order"`
	Records map[string]*Record `json:"records"`
}

// validate checks the image's internal consistency.
func (snap *storeSnapshot) validate() error {
	if snap.Records == nil {
		snap.Records = make(map[string]*Record)
	}
	if len(snap.Order) != len(snap.Records) {
		return fmt.Errorf("snapshot lists %d ordered ids for %d records", len(snap.Order), len(snap.Records))
	}
	for _, id := range snap.Order {
		r, ok := snap.Records[id]
		if !ok || r.Offer == nil {
			return fmt.Errorf("snapshot order references missing or empty record %s", id)
		}
	}
	return nil
}

// marshalState serialises the full store state: every shard's records,
// with the order merged shard-major — the same order List reports.
func (s *Store) marshalState() ([]byte, error) {
	snap := storeSnapshot{Records: make(map[string]*Record)}
	for _, sh := range s.shards {
		sh.mu.RLock()
		snap.Order = append(snap.Order, sh.order...)
		for id, r := range sh.records {
			snap.Records[id] = r
		}
		sh.mu.RUnlock()
	}
	return json.Marshal(snap)
}

// restoreShard loads a per-shard snapshot image into the still-empty
// shard k, inserting its records in their submission order. Every record
// must route to shard k — a violation means the snapshot was written under
// a different shard count.
func (s *Store) restoreShard(k int, data []byte) error {
	var snap storeSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	if err := snap.validate(); err != nil {
		return err
	}
	for _, id := range snap.Order {
		if got := s.ShardIndex(id); got != k {
			return fmt.Errorf("snapshot record %s routes to shard %d, not %d (shard count changed?)", id, got, k)
		}
	}
	sh := s.shards[k]
	w := sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.order) > 0 {
		return fmt.Errorf("shard %d already holds %d records", k, len(sh.order))
	}
	sh.records = make(map[string]*Record, len(snap.Order))
	for _, id := range snap.Order {
		sh.insertLocked(replayed(w), snap.Records[id])
	}
	return nil
}

// JournalOptions configures OpenJournaled.
type JournalOptions struct {
	// Dir is the journal directory (the daemon's -data-dir). Each shard
	// journals into its own shard-NNN subdirectory.
	Dir string
	// Shards is the store partition count. Zero adopts whatever an
	// existing directory holds (defaulting to 1 on a fresh directory);
	// a non-zero value that disagrees with an existing directory is an
	// error — shard counts are fixed at directory creation because the
	// ID-hash routing bakes the count into every stream.
	Shards int
	// Policy selects when appends are fsynced; the zero value is
	// wal.SyncAlways. Under wal.SyncEvery the background fsync runs every
	// wal.DefaultSyncInterval.
	Policy wal.SyncPolicy
	// SnapshotEvery triggers an automatic per-shard snapshot after that
	// many events journaled into that shard; zero disables automatic
	// snapshots (Close still takes final ones).
	SnapshotEvery int
	// SegmentBytes overrides the WAL segment-rotation threshold.
	SegmentBytes int64
	// FS overrides the filesystem (tests and fault injection).
	FS wal.FS
	// Clock is the store clock, as in NewStore.
	Clock func() time.Time
}

// RecoveryStats describes what OpenJournaled found on disk and how the
// state was rebuilt, aggregated across shards: on a single-shard store it
// is exactly that shard's outcome.
type RecoveryStats struct {
	// WAL aggregates the log-level recovery outcome: segments, records
	// and torn bytes are summed, TornTail reports whether any shard's
	// stream had one, NextLSN is the largest across shards.
	WAL wal.RecoveryInfo
	// SnapshotUsed reports whether any shard was seeded from a snapshot.
	SnapshotUsed bool
	// EventsReplayed is the number of journal events applied after the
	// snapshots, summed across shards.
	EventsReplayed uint64
	// EventsHandDecoded is the number of replayed events the hand decoder
	// took (decodeEvent), summed across shards; the rest went to
	// json.Unmarshal.
	EventsHandDecoded uint64
	// Offers is the number of offers in the recovered store.
	Offers int
	// Duration is the wall-clock time recovery took.
	Duration time.Duration
	// ReadTime, DecodeTime and ApplyTime split the WAL tails' replay into
	// reading and checking the records, decoding their payloads, and
	// applying the decoded events, summed across shards. The shards
	// replay concurrently, so the sum may exceed Duration.
	ReadTime, DecodeTime, ApplyTime time.Duration
}

// journalShard is one shard's durability stream: its own WAL segment
// files and snapshots under the shard's subdirectory.
type journalShard struct {
	log       *wal.Log
	sinceSnap uint64 // events since the last snapshot trigger; guarded by Journal.mu
}

// Journal is the durability attachment of a Store: one WAL stream per
// shard, appending one event per acknowledged transition and snapshotting
// each shard periodically and on Close.
type Journal struct {
	shards []*journalShard // immutable after OpenJournaled
	store  *Store
	every  uint64 // events between automatic snapshots per shard; 0 = never

	mu       sync.Mutex
	closed   bool   // guarded by mu
	snapErrs uint64 // guarded by mu: failed snapshot attempts

	recovery RecoveryStats // immutable after OpenJournaled
	snapc    chan int      // nil unless automatic snapshots are on
	donec    chan struct{}
}

// shardDirName renders shard k's subdirectory name.
func shardDirName(k int) string { return fmt.Sprintf("shard-%03d", k) }

// parseShardDirName extracts the shard index from a subdirectory name.
func parseShardDirName(name string) (int, bool) {
	var k int
	if _, err := fmt.Sscanf(name, "shard-%03d", &k); err != nil || shardDirName(k) != name {
		return 0, false
	}
	return k, true
}

// findShardCount inspects dir and reports how many shard subdirectories
// it holds (the largest index + 1, so a crash mid-creation cannot shrink
// the count as long as directories are created in descending order). A
// directory holding flat WAL files — the pre-sharding layout — is
// rejected explicitly rather than silently shadowed by empty shard
// subdirectories.
func findShardCount(wfs wal.FS, dir string) (int, error) {
	entries, err := wfs.ReadDir(dir)
	if err != nil {
		// A missing directory is a fresh start; wal.Open creates it.
		return 0, nil
	}
	count := 0
	for _, e := range entries {
		if k, ok := parseShardDirName(e.Name()); ok && e.IsDir() {
			if k+1 > count {
				count = k + 1
			}
			continue
		}
		if !e.IsDir() && (matchesWALFile(e.Name()) || matchesSnapshotFile(e.Name())) {
			return 0, fmt.Errorf("market: %s holds a pre-sharding flat journal layout; migrate it into %s before opening", dir, filepath.Join(dir, shardDirName(0)))
		}
	}
	return count, nil
}

func matchesWALFile(name string) bool {
	ok, _ := filepath.Match("wal-*.log", name)
	return ok
}

func matchesSnapshotFile(name string) bool {
	ok, _ := filepath.Match("snap-*.snap", name)
	return ok
}

// OpenJournaled opens (or creates) a journaled store: it recovers the
// state persisted in opts.Dir — each shard's newest valid snapshot plus
// its WAL tail — and returns the store with the journal attached, so
// every subsequent transition is durable before it is acknowledged.
// Shard streams are opened and their snapshots restored sequentially;
// the WAL tails then replay concurrently (replay is pure reads and the
// shards are disjoint). A torn final record in any stream is repaired
// silently (RecoveryStats says so); interior corruption fails with
// wal.ErrCorrupt rather than dropping acknowledged transitions.
func OpenJournaled(opts JournalOptions) (*Store, *Journal, error) {
	t0 := time.Now()
	wfs := opts.FS
	if wfs == nil {
		wfs = wal.DiskFS
	}
	found, err := findShardCount(wfs, opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	n := opts.Shards
	switch {
	case found > 0 && n == 0:
		n = found
	case found > 0 && n != found:
		return nil, nil, fmt.Errorf("market: %s holds %d shard(s) but %d were requested; shard counts are fixed at directory creation", opts.Dir, found, n)
	case n == 0:
		n = 1
	case n < 0:
		return nil, nil, fmt.Errorf("market: shard count %d out of range", n)
	}
	// Create the shard directories highest-index first: if a crash
	// interrupts creation, the surviving directories still imply the full
	// count (findShardCount takes the largest index), so a reopen never
	// adopts a smaller shard count and mis-routes offers.
	for k := n - 1; k >= 0; k-- {
		if err := wfs.MkdirAll(filepath.Join(opts.Dir, shardDirName(k)), fs.FileMode(0o755)); err != nil {
			return nil, nil, fmt.Errorf("market: create shard directory: %w", err)
		}
	}

	store := NewShardedStore(n, opts.Clock)
	j := &Journal{store: store, every: uint64(max(opts.SnapshotEvery, 0))}
	var rec RecoveryStats
	closeAll := func() {
		for _, js := range j.shards {
			js.log.Close()
		}
	}

	// Phase 1 — sequential: open each shard's stream (torn-tail repair
	// writes happen here, in deterministic shard order, which keeps
	// fault-injection draws reproducible) and restore its snapshot.
	replayFrom := make([]uint64, n)
	for k := 0; k < n; k++ {
		log, walInfo, err := wal.Open(wal.Options{
			Dir:          filepath.Join(opts.Dir, shardDirName(k)),
			SegmentBytes: opts.SegmentBytes,
			Policy:       opts.Policy,
			FS:           opts.FS,
		})
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("market: open shard %d: %w", k, err)
		}
		j.shards = append(j.shards, &journalShard{log: log})
		rec.WAL.Segments += walInfo.Segments
		rec.WAL.Records += walInfo.Records
		rec.WAL.TornBytes += walInfo.TornBytes
		rec.WAL.TornTail = rec.WAL.TornTail || walInfo.TornTail
		rec.WAL.NextLSN = max(rec.WAL.NextLSN, walInfo.NextLSN)
		payload, snapLSN, err := log.LatestSnapshot()
		switch {
		case err == nil:
			if err := store.restoreShard(k, payload); err != nil {
				closeAll()
				return nil, nil, fmt.Errorf("market: restore shard %d snapshot at lsn %d: %w", k, snapLSN, err)
			}
			replayFrom[k] = snapLSN
			rec.SnapshotUsed = true
		case errors.Is(err, wal.ErrNoSnapshot):
			// Fresh shard or never snapshotted: replay from the start.
		default:
			closeAll()
			return nil, nil, fmt.Errorf("market: load shard %d snapshot: %w", k, err)
		}
	}

	// Phase 2 — concurrent: replay each shard's WAL tail, counting into
	// the shard's own replays entry. Replay only reads the stream and
	// mutates its own shard, so the shards are independent.
	var wg sync.WaitGroup
	replayErrs := make([]error, n)
	replays := make([]RecoveryStats, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sr := &replays[k]
			start := time.Now()
			replayErrs[k] = j.shards[k].log.ReplayFrom(replayFrom[k], func(lsn uint64, payload []byte) error {
				t0 := time.Now()
				ev, hand, err := decodeEvent(payload)
				t1 := time.Now()
				sr.DecodeTime += t1.Sub(t0)
				if err != nil {
					return fmt.Errorf("event at lsn %d: %v", lsn, err)
				}
				if hand {
					sr.EventsHandDecoded++
				}
				if at, err := store.shardOfEvent(ev); err != nil {
					return fmt.Errorf("event at lsn %d: %v", lsn, err)
				} else if at >= 0 && at != k {
					return fmt.Errorf("event at lsn %d routes to shard %d, found in shard %d's stream (shard count changed?)", lsn, at, k)
				}
				if err := store.applyEvent(ev); err != nil {
					return fmt.Errorf("event at lsn %d: %v", lsn, err)
				}
				sr.ApplyTime += time.Since(t1)
				sr.EventsReplayed++
				return nil
			})
			sr.ReadTime = time.Since(start) - sr.DecodeTime - sr.ApplyTime
		}(k)
	}
	wg.Wait()
	for k, err := range replayErrs {
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("market: replay shard %d journal: %w", k, err)
		}
	}

	// Sum the shards' replays and recovered offers into the top-level view.
	for k, sr := range replays {
		rec.EventsReplayed += sr.EventsReplayed
		rec.EventsHandDecoded += sr.EventsHandDecoded
		rec.ReadTime += sr.ReadTime
		rec.DecodeTime += sr.DecodeTime
		rec.ApplyTime += sr.ApplyTime
		sh := store.shards[k]
		sh.mu.RLock()
		rec.Offers += len(sh.order)
		sh.mu.RUnlock()
	}
	rec.Duration = time.Since(t0)
	j.recovery = rec

	for k := range store.shards {
		k := k
		store.shards[k].journal = func(ev event) error { return j.appendShard(k, ev) }
	}
	if j.every > 0 {
		j.snapc = make(chan int, n)
		j.donec = make(chan struct{})
		go j.snapshotLoop()
	}
	return store, j, nil
}

// appendShard journals one event into shard k's stream. It runs with that
// shard's write lock held, so each stream's append order is exactly its
// shard's mutation order.
func (j *Journal) appendShard(k int, ev event) error {
	payload, err := ev.encode()
	if err != nil {
		return fmt.Errorf("encode event: %v", err)
	}
	js := j.shards[k]
	if _, err := js.log.Append(payload); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	js.sinceSnap++
	if j.snapc != nil && !j.closed && js.sinceSnap >= j.every {
		// Non-blocking: if this shard's snapshot is already pending, the
		// event is covered by it anyway.
		select {
		case j.snapc <- k:
			js.sinceSnap = 0
		default:
		}
	}
	return nil
}

// snapshotLoop services automatic snapshot requests in the background, so
// snapshot writes never sit on the request path.
func (j *Journal) snapshotLoop() {
	defer close(j.donec)
	for k := range j.snapc {
		j.snapshotShard(k)
	}
}

// snapshotShard captures shard k's state into a durable snapshot in its
// stream and compacts the stream's segments the snapshot made redundant.
func (j *Journal) snapshotShard(k int) error {
	sh := j.store.shards[k]
	js := j.shards[k]
	// Holding the shard's read lock while reading NextLSN pins the pair:
	// appends mutate both under the write lock, so the copy is exactly
	// the state produced by every record below lsn. Records change only
	// under the write lock and their offers never, so copying the record
	// values is enough, and the encoding runs after the unlock, off the
	// shard's writers' path.
	sh.mu.RLock()
	lsn := js.log.NextLSN()
	order := slices.Clone(sh.order)
	recs := make([]Record, len(order))
	for i, id := range order {
		recs[i] = *sh.records[id]
	}
	sh.mu.RUnlock()
	snap := storeSnapshot{Order: order, Records: make(map[string]*Record, len(order))}
	for i, id := range order {
		snap.Records[id] = &recs[i]
	}
	payload, err := json.Marshal(snap)
	if err == nil {
		err = js.log.WriteSnapshot(lsn, payload)
	}
	if err == nil {
		_, err = js.log.Compact(lsn)
	}
	if err != nil {
		j.mu.Lock()
		j.snapErrs++
		j.mu.Unlock()
		return fmt.Errorf("market: snapshot shard %d: %w", k, err)
	}
	return nil
}

// Snapshot captures every shard's current state into durable snapshots
// and compacts the WAL segments they made redundant. Failures are
// recorded in Stats and the first is returned; the journal keeps
// appending either way.
func (j *Journal) Snapshot() error {
	var first error
	for k := range j.shards {
		if err := j.snapshotShard(k); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// JournalStats is a point-in-time view of the journal's counters, the
// source of the wal_* and snapshot_* metric families.
type JournalStats struct {
	// WAL aggregates the log-level counters across shard streams:
	// appends, fsyncs, bytes, segments and snapshots are summed, NextLSN
	// is the largest stream position, SnapshotLSN the smallest snapshot
	// floor. On a single-shard store these are exactly the one stream's
	// counters.
	WAL wal.Stats
	// SnapshotErrors counts failed snapshot attempts.
	SnapshotErrors uint64
}

// Stats snapshots the journal's counters, aggregated across shards.
func (j *Journal) Stats() JournalStats {
	var st JournalStats
	for i, js := range j.shards {
		ws := js.log.Stats()
		st.WAL.Appends += ws.Appends
		st.WAL.Fsyncs += ws.Fsyncs
		st.WAL.Bytes += ws.Bytes
		st.WAL.Segments += ws.Segments
		st.WAL.Snapshots += ws.Snapshots
		if ws.NextLSN > st.WAL.NextLSN {
			st.WAL.NextLSN = ws.NextLSN
		}
		if i == 0 || ws.SnapshotLSN < st.WAL.SnapshotLSN {
			st.WAL.SnapshotLSN = ws.SnapshotLSN
		}
	}
	j.mu.Lock()
	st.SnapshotErrors = j.snapErrs
	j.mu.Unlock()
	return st
}

// Recovery reports how the store's state was rebuilt at open.
func (j *Journal) Recovery() RecoveryStats { return j.recovery }

// ShardCount reports the number of WAL streams the journal maintains
// (always the store's shard count).
func (j *Journal) ShardCount() int { return len(j.shards) }

// Close takes final per-shard snapshots and closes every stream. It is
// idempotent; the store refuses further transitions once the streams are
// closed (ErrJournal).
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	if j.snapc != nil {
		close(j.snapc)
	}
	j.mu.Unlock()
	if j.donec != nil {
		<-j.donec
	}
	err := j.Snapshot()
	for _, js := range j.shards {
		if cerr := js.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RegisterJournalMetrics exports the journal's durability counters on reg:
//
//	wal_appends_total         counter: journaled events appended (all shards)
//	wal_fsyncs_total          counter: fsync calls issued by the logs
//	wal_bytes_total           counter: record bytes written
//	wal_segments              gauge: live WAL segment files across shards
//	snapshot_writes_total     counter: snapshots taken since open
//	snapshot_errors_total     counter: snapshot attempts that failed
//	snapshot_last_lsn         gauge: smallest LSN floor across shard snapshots
//	recovery_duration_seconds gauge: wall-clock time boot recovery took
//	recovery_events_replayed  gauge: WAL events replayed at boot
func RegisterJournalMetrics(reg *obs.Registry, j *Journal) {
	reg.NewCounterFunc("wal_appends_total", "Journaled events appended to the write-ahead log.", func() uint64 {
		return j.Stats().WAL.Appends
	})
	reg.NewCounterFunc("wal_fsyncs_total", "Fsync calls issued by the write-ahead log.", func() uint64 {
		return j.Stats().WAL.Fsyncs
	})
	reg.NewCounterFunc("wal_bytes_total", "Record bytes written to the write-ahead log.", func() uint64 {
		return j.Stats().WAL.Bytes
	})
	reg.NewGaugeFunc("wal_segments", "Live write-ahead log segment files.", func() float64 {
		return float64(j.Stats().WAL.Segments)
	})
	reg.NewCounterFunc("snapshot_writes_total", "Store snapshots written since open.", func() uint64 {
		return j.Stats().WAL.Snapshots
	})
	reg.NewCounterFunc("snapshot_errors_total", "Store snapshot attempts that failed.", func() uint64 {
		return j.Stats().SnapshotErrors
	})
	reg.NewGaugeFunc("snapshot_last_lsn", "LSN covered by the newest snapshot.", func() float64 {
		return float64(j.Stats().WAL.SnapshotLSN)
	})
	reg.NewGaugeFunc("recovery_duration_seconds", "Wall-clock time the boot recovery took.", func() float64 {
		return j.recovery.Duration.Seconds()
	})
	reg.NewGaugeFunc("recovery_events_replayed", "Write-ahead log events replayed at boot.", func() float64 {
		return float64(j.recovery.EventsReplayed)
	})
}
