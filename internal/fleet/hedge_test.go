package fleet

import (
	"testing"
	"time"
)

func TestHedgerFixedDelay(t *testing.T) {
	h := newHedger(HedgeConfig{Delay: 5 * time.Millisecond})
	h.observe(time.Second) // samples must not override a fixed delay
	if got := h.delay(); got != 5*time.Millisecond {
		t.Fatalf("fixed delay = %s, want 5ms", got)
	}
}

func TestHedgerAdaptiveDelay(t *testing.T) {
	h := newHedger(HedgeConfig{})
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
	h2 := newHedger(HedgeConfig{})
	for i := 0; i < hedgeWindow; i++ {
		h2.observe(time.Microsecond)
	}
	if got := h2.delay(); got != hedgeMinDelay {
		t.Fatalf("clamped delay = %s, want %s", got, hedgeMinDelay)
	}
}

func TestHedgerBudget(t *testing.T) {
	h := newHedger(HedgeConfig{})
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
