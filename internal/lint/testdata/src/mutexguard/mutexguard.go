// Package mutexguard exercises the guarded-field annotations: fields marked
// "guarded by mu" must be accessed with the receiver's lock already taken in
// the same function.
package mutexguard

import "sync"

// counter is the fixture guarded struct.
type counter struct {
	mu sync.RWMutex
	n  int      // guarded by mu
	s  []string // guarded by mu
	id string   // immutable, deliberately unguarded
}

func (c *counter) bad() int {
	return c.n // want:mutexguard
}

func (c *counter) badBeforeLock() int {
	v := c.n // want:mutexguard
	c.mu.Lock()
	defer c.mu.Unlock()
	return v + c.n
}

func (c *counter) good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) goodRead() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.s...)
}

func (c *counter) unguardedIsFine() string {
	return c.id
}

func nonTrivial(get func() *counter) int {
	get().mu.Lock()
	return get().n // want:mutexguard
}

func (c *counter) suppressed() int {
	//lint:ignore mutexguard fixture demonstrates suppression with a reason
	return c.n
}

func (c *counter) suppressedAll() int {
	//lint:ignore all fixture demonstrates the blanket form
	return c.n
}

func (c *counter) malformedDirective() int {
	//lint:ignore want:flexvet
	return c.n // want:mutexguard
}

// misnamedDirective's suppression names no registered analyzer (a typo of
// floatcmp), so it is reported and honours nothing.
func (c *counter) misnamedDirective() int {
	//lint:ignore floatcomp want:flexvet the analyzer name is misspelt
	return c.n // want:mutexguard
}

// incrLocked follows the *Locked convention: the caller holds c.mu, so
// the guarded accesses in its body are exempt.
func (c *counter) incrLocked() {
	c.n++
	c.s = append(c.s, "x")
}

// chainLocked may call sibling *Locked helpers freely — the obligation
// stays with the outermost non-Locked caller.
func (c *counter) chainLocked() {
	c.incrLocked()
}

func (c *counter) callsHelperWithLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.incrLocked()
}

func (c *counter) callsHelperWithoutLock() {
	c.incrLocked() // want:mutexguard
}

func (c *counter) callsHelperBeforeLock() {
	c.incrLocked() // want:mutexguard
	c.mu.Lock()
	defer c.mu.Unlock()
	c.incrLocked()
}

func nonTrivialLockedCall(get func() *counter) {
	get().mu.Lock()
	get().incrLocked() // want:mutexguard
}

// unguardedHelper has no guarded fields on its receiver, so its *Locked
// method carries no obligation.
type unguardedHelper struct{ n int }

func (u *unguardedHelper) bumpLocked() { u.n++ }

func freeStanding(u *unguardedHelper) {
	u.bumpLocked()
}
