// Package pipeline is the flexvet driver-test fixture: a multi-file package
// seeded with one violation per file, sitting at the internal/pipeline path
// suffix that the clockcheck and doccheck analyzers gate.
package pipeline

import "time"

// stamp reads the wall clock in a replayable path — the seeded clockcheck
// violation `make lint` refuses to ship.
func stamp() time.Time {
	return time.Now()
}
