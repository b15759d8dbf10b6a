package remote

import (
	"testing"
	"time"
)

func TestBreakerConsecutiveTripAndRecovery(t *testing.T) {
	now := time.Unix(0, 0)
	b := &breaker{threshold: 3, cooldown: time.Second}

	if !b.allow(now) {
		t.Fatal("a fresh breaker must allow requests")
	}
	b.failure(now)
	b.failure(now)
	if !b.allow(now) {
		t.Fatal("two failures (below threshold) must not trip")
	}
	b.failure(now)
	if b.allow(now) {
		t.Fatal("three consecutive failures must trip the breaker")
	}
	if st, trips, _ := b.snapshot(); st != "open" || trips != 1 {
		t.Fatalf("state %s trips %d, want open 1", st, trips)
	}

	// Cooldown not elapsed: still short-circuiting.
	if b.allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("breaker allowed a request mid-cooldown")
	}

	// Cooldown elapsed: exactly one half-open probe is granted.
	now = now.Add(1100 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("cooldown elapsed; a probe must be allowed")
	}
	if st, _, probes := b.snapshot(); st != "half-open" || probes != 1 {
		t.Fatalf("state %s probes %d, want half-open 1", st, probes)
	}
	if b.allow(now) {
		t.Fatal("a second concurrent probe must be refused")
	}

	// Probe success closes the breaker.
	b.success()
	if st, _, _ := b.snapshot(); st != "closed" {
		t.Fatalf("state after probe success = %s, want closed", st)
	}
	if !b.allow(now) {
		t.Fatal("closed breaker must allow requests")
	}

	// The failure run restarted: it takes threshold fresh failures to re-trip.
	b.failure(now)
	b.failure(now)
	if !b.allow(now) {
		t.Fatal("failure run must reset after recovery")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Unix(0, 0)
	b := &breaker{threshold: 2, cooldown: time.Second}
	b.failure(now)
	b.failure(now) // trips
	now = now.Add(2 * time.Second)
	if !b.allow(now) {
		t.Fatal("probe not granted after cooldown")
	}
	b.failure(now) // the probe fails
	if st, trips, _ := b.snapshot(); st != "open" || trips != 2 {
		t.Fatalf("state %s trips %d after failed probe, want open 2", st, trips)
	}
	if b.allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("failed probe must restart the cooldown")
	}
	now = now.Add(2 * time.Second)
	if !b.allow(now) {
		t.Fatal("another probe must be granted after the second cooldown")
	}
	b.success()
	if st, _, _ := b.snapshot(); st != "closed" {
		t.Fatalf("state = %s, want closed", st)
	}
}

func TestBreakerProbeExpiryPreventsDeadlock(t *testing.T) {
	now := time.Unix(0, 0)
	b := &breaker{threshold: 1, cooldown: time.Second}
	b.failure(now) // trips
	now = now.Add(2 * time.Second)
	if !b.allow(now) {
		t.Fatal("probe not granted")
	}
	// The probe's caller dies without reporting. Within the cooldown the
	// probe slot stays held...
	if b.allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("probe slot double-granted before expiry")
	}
	// ...but after a cooldown the unreported probe expires and another is
	// granted, so a lost caller can never wedge the breaker.
	if !b.allow(now.Add(1500 * time.Millisecond)) {
		t.Fatal("expired probe must free the slot")
	}
}

// TestBreakerTripsOnlyOnConsecutiveFailures pins the one trip rule: any
// number of failures interleaved with successes never opens a closed
// breaker — a backend failing every other request stays in rotation and the
// retry path absorbs it — while threshold failures in a row do.
func TestBreakerTripsOnlyOnConsecutiveFailures(t *testing.T) {
	now := time.Unix(0, 0)
	b := &breaker{threshold: 3, cooldown: time.Second}
	for i := 0; i < 100; i++ {
		b.failure(now)
		b.success()
	}
	if !b.allow(now) {
		t.Fatal("alternating failure/success must never open a closed breaker")
	}
	if st, trips, _ := b.snapshot(); st != "closed" || trips != 0 {
		t.Fatalf("state %s trips %d after alternating outcomes, want closed 0", st, trips)
	}
	b.failure(now)
	b.failure(now)
	if !b.allow(now) {
		t.Fatal("threshold-1 consecutive failures must not trip")
	}
	b.failure(now)
	if b.allow(now) {
		t.Fatal("threshold consecutive failures must open the breaker")
	}
	if st, trips, _ := b.snapshot(); st != "open" || trips != 1 {
		t.Fatalf("state %s trips %d, want open 1", st, trips)
	}
}

func TestBreakerEjectAndReinstate(t *testing.T) {
	now := time.Unix(0, 0)
	b := &breaker{threshold: 3, cooldown: time.Second}
	b.eject(now)
	if b.allow(now) {
		t.Fatal("ejected breaker must short-circuit")
	}
	if st, trips, _ := b.snapshot(); st != "open" || trips != 1 {
		t.Fatalf("state %s trips %d, want open 1", st, trips)
	}
	// Repeated ejects refresh the cooldown but are one trip.
	now = now.Add(900 * time.Millisecond)
	b.eject(now)
	if _, trips, _ := b.snapshot(); trips != 1 {
		t.Fatalf("re-eject counted as a new trip")
	}
	if b.allow(now.Add(900 * time.Millisecond)) {
		t.Fatal("refreshed eject must extend the short-circuit")
	}
	b.reinstate()
	if !b.allow(now) {
		t.Fatal("reinstated breaker must allow requests")
	}
	if st, _, _ := b.snapshot(); st != "closed" {
		t.Fatalf("state = %s, want closed", st)
	}
}
