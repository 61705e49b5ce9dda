package market

// snapshotNote journals a marker for the next snapshot cut but never looks
// at the append result — the seeded errflow violation.
func (sh *shard) snapshotNote(op string) {
	sh.mu.Lock()
	sh.journalLocked(op)
	sh.mu.Unlock()
}
