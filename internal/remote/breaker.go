package remote

import (
	"sync"
	"time"
)

// breakerState is one backend's circuit-breaker position.
type breakerState int

const (
	stateClosed   breakerState = iota // healthy: requests flow
	stateOpen                         // tripped: requests short-circuit until cooldown
	stateHalfOpen                     // cooling down: one probe request at a time
)

func (s breakerState) String() string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-backend circuit breaker. Closed, it counts consecutive
// failures and trips open after threshold of them; open, it short-circuits
// requests until cooldown has passed; half-open, it admits one probe at a
// time — a probe success closes the breaker, a failure re-opens it, and an
// unreported probe (the caller was canceled mid-flight) expires after
// another cooldown so the breaker can never deadlock waiting on a verdict
// that will not come. A failure rate over a sliding window was measured as
// a second trip rule and moved no outcome of the fleet ablation
// (TestFleetAblation), so consecutive failures are the only rule.
//
// All methods take the clock as a parameter, so state-machine tests drive
// time synthetically.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that trip the breaker
	cooldown  time.Duration // open -> half-open delay, and probe expiry

	state    breakerState
	consec   int // consecutive failures while closed
	openedAt time.Time
	probing  bool
	probeAt  time.Time

	trips  uint64 // closed->open transitions, ejects and re-opens included
	probes uint64 // half-open probes granted
}

// allow reports whether a request may be sent now. While half-open it grants
// at most one in-flight probe per cooldown period.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = stateHalfOpen
		b.probing = true
		b.probeAt = now
		b.probes++
		return true
	default: // half-open
		if b.probing && now.Sub(b.probeAt) <= b.cooldown {
			return false // a probe is already in flight and not yet expired
		}
		b.probing = true
		b.probeAt = now
		b.probes++
		return true
	}
}

// success records an authoritative answer from the backend: it closes a
// half-open (or stale open) breaker and clears the failure run.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != stateClosed {
		b.resetLocked()
		return
	}
	b.consec = 0
}

// failure records a failed attempt, tripping or re-opening as configured.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateHalfOpen:
		// The probe failed: back to fully open, restart the cooldown.
		b.state = stateOpen
		b.openedAt = now
		b.probing = false
		b.trips++
	case stateClosed:
		b.consec++
		if b.consec >= b.threshold {
			b.tripLocked(now)
		}
	case stateOpen:
		// A stale in-flight failure from before the trip: nothing to learn,
		// and extending the cooldown for it would delay recovery.
	}
}

// eject force-opens the breaker (the health prober declared the backend
// down). Repeated ejects refresh the cooldown so the request path keeps
// short-circuiting for as long as the prober keeps failing.
func (b *breaker) eject(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != stateOpen {
		b.trips++
	}
	b.state = stateOpen
	b.openedAt = now
	b.probing = false
}

// reinstate force-closes the breaker (the health prober's canary passed).
func (b *breaker) reinstate() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.resetLocked()
}

// snapshot returns the state name and lifetime trip/probe counts.
func (b *breaker) snapshot() (state string, trips, probes uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.trips, b.probes
}

func (b *breaker) tripLocked(now time.Time) {
	b.state = stateOpen
	b.openedAt = now
	b.probing = false
	b.trips++
	b.consec = 0
}

func (b *breaker) resetLocked() {
	b.state = stateClosed
	b.consec = 0
	b.probing = false
}
