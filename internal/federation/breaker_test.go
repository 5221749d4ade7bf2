package federation

import (
	"testing"
	"time"
)

func TestBreakerStateMachine(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{Failures: 3, Cooldown: 10 * time.Second, Successes: 2})
	b.now = func() time.Time { return clock }

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker must be closed and allowing")
	}
	// Failures below the threshold keep it closed; a success resets the
	// streak.
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatal("3 consecutive failures did not open the breaker")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request before cooldown")
	}
	// Cooldown elapses: half-open probes allowed.
	clock = clock.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown probe = %v, want half-open", b.State())
	}
	// A half-open failure reopens immediately.
	b.Record(false)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("half-open failure did not reopen the breaker")
	}
	// Recover: probe again, then enough successes close it.
	clock = clock.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown probe refused")
	}
	b.Record(true)
	if b.State() != BreakerHalfOpen {
		t.Fatal("one success closed the breaker early")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatal("enough half-open successes did not close the breaker")
	}
}

// TestHalfOpenSingleProbe: while half-open, only one probe may be in
// flight — concurrent callers are rejected until its outcome is
// recorded, so a barely-recovered source is never hammered.
func TestHalfOpenSingleProbe(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Second, Successes: 2})
	b.now = func() time.Time { return clock }

	b.Record(false) // trip
	clock = clock.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the first probe")
	}
	if b.Allow() || b.Allow() {
		t.Fatal("half-open breaker allowed concurrent probes")
	}
	// The probe resolving releases the token for the next single probe.
	b.Record(true)
	if b.State() != BreakerHalfOpen {
		t.Fatal("one success of two closed the breaker early")
	}
	if !b.Allow() {
		t.Fatal("resolved probe did not release the half-open token")
	}
	if b.Allow() {
		t.Fatal("second half-open probe admitted a concurrent caller")
	}
	b.Record(true)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("enough probe successes did not close the breaker")
	}

	// A failed probe reopens and clears the token: after the next
	// cooldown exactly one new probe gets through again.
	b.Record(false)
	clock = clock.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the probe after a failed recovery cycle")
	}
	if b.Allow() {
		t.Fatal("reopened breaker allowed concurrent probes")
	}
}
