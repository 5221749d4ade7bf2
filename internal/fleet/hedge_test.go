package fleet

import (
	"testing"
	"time"
)

func TestHedgerFixedDelay(t *testing.T) {
	h := newHedger()
	h.fixed = 5 * time.Millisecond
	h.observe(time.Second) // samples must not override a fixed delay
	if got := h.delay(); got != 5*time.Millisecond {
		t.Fatalf("fixed delay = %s, want 5ms", got)
	}
}

func TestHedgerAdaptiveDelay(t *testing.T) {
	h := newHedger()
	// Before any observation the hedger must be maximally conservative.
	if got := h.delay(); got != hedgeMaxDelay {
		t.Fatalf("cold delay = %s, want %s", got, hedgeMaxDelay)
	}
	for i := 1; i <= 100; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	// The ring holds 1..100ms; p95 must land near the tail, inside the
	// clamp window.
	got := h.delay()
	if got < 90*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p95 delay = %s, want ~95ms", got)
	}
	// Uniformly tiny latencies clamp up to hedgeMinDelay.
	h2 := newHedger()
	for i := 0; i < hedgeWindow; i++ {
		h2.observe(time.Microsecond)
	}
	if got := h2.delay(); got != hedgeMinDelay {
		t.Fatalf("clamped delay = %s, want %s", got, hedgeMinDelay)
	}
	// Once the window is full the delay is recomputed every hedgeRefresh
	// observations: a latency shift moves it within that many.
	for i := 0; i < hedgeRefresh; i++ {
		h2.observe(500 * time.Millisecond)
	}
	if got := h2.delay(); got != 500*time.Millisecond {
		t.Fatalf("%d observations of 500ms left the delay at %s", hedgeRefresh, got)
	}
}

// The delay is read on every routed query: a load, nothing allocated.
func TestHedgerDelayAllocs(t *testing.T) {
	h := newHedger()
	for i := 0; i < 2*hedgeWindow; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.delay() }); n != 0 {
		t.Fatalf("hedger.delay allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.observe(time.Millisecond) }); n != 0 {
		t.Fatalf("hedger.observe allocates %v times", n)
	}
}

func TestHedgerBudget(t *testing.T) {
	h := newHedger()
	for i := 0; i < hedgeBurst; i++ {
		if !h.take() {
			t.Fatalf("burst hedge %d of %d missing", i+1, hedgeBurst)
		}
	}
	if h.take() {
		t.Fatal("budget exhausted but take succeeded")
	}
	for i := 1; i < hedgeEvery; i++ {
		h.earn()
	}
	if h.take() {
		t.Fatalf("%d routed queries must not buy a hedge", hedgeEvery-1)
	}
	h.earn()
	if !h.take() {
		t.Fatalf("%d routed queries earned no hedge", hedgeEvery)
	}
	// The bucket caps at hedgeBurst.
	for i := 0; i < 2*hedgeBurst*hedgeEvery; i++ {
		h.earn()
	}
	for i := 0; i < hedgeBurst; i++ {
		if !h.take() {
			t.Fatal("bucket refill missing")
		}
	}
	if h.take() {
		t.Fatal("bucket exceeded hedgeBurst")
	}
}
