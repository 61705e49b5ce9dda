// Package market is a pared-down market shard seeded with one flow-analyzer
// violation per file; the driver test pins the exact (file, line, analyzer)
// set. This file carries the shared shard plus the seeded malformed
// directive.
package market

import "sync"

// shard is the durable slice of the market: records journaled through
// the injected append hook.
type shard struct {
	mu      sync.Mutex
	records map[string]int
	journal func(op string) error
}

// journalLocked appends op to the journal; callers hold the write lock.
func (sh *shard) journalLocked(op string) error {
	return sh.journal(op)
}

// insertLocked stores id under the write lock.
func (sh *shard) insertLocked(id string) {
	sh.records[id] = len(sh.records)
}

// submit is the well-behaved write path: lock, journal, mutate, unlock.
// The directive below belongs to the retired //flexvet: family, so the
// driver must surface it instead of silently ignoring it.
//
//flexvet:hotpth
func (sh *shard) submit(id string) error {
	sh.mu.Lock()
	if err := sh.journalLocked("insert " + id); err != nil {
		sh.mu.Unlock()
		return err
	}
	sh.insertLocked(id)
	sh.mu.Unlock()
	return nil
}
