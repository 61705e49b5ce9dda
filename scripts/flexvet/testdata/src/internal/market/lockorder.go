package market

// drainInto moves every record from src into dst while holding both shard
// locks at once — the seeded lockorder violation: acquiring two locks of
// the same class can deadlock against the mirror-image caller.
func drainInto(dst, src *shard) {
	src.mu.Lock()
	dst.mu.Lock()
	for id, n := range src.records {
		dst.records[id] = n
	}
	src.records = map[string]int{}
	dst.mu.Unlock()
	src.mu.Unlock()
}
