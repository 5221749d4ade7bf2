// Hedged failover reads: a query goes to one shard, and because every
// shard serves full reads off the replicated snapshots, a slow or
// failed shard's query can be re-issued to any healthy peer and the
// first answer wins — this is the read path's failover, and the only
// one: every request the router sends a shard is one attempt, and a
// failed one marks the shard down until its next good probe. The hedge
// is a timer armed on the adaptive delay (a percentile of recently
// observed shard latencies, so only genuine stragglers pay it) and
// stopped when the shard answers first, so it costs nothing unless it
// fires; a shard that fails outright is hedged at once. Hedges are
// limited by a token-bucket retry budget: every routed query earns a
// fraction of a token, every hedge spends one, so hedging can never
// multiply the upstream request rate into a brownout — under a 100%
// slow fleet the extra load is bounded by 1/hedgeEvery, not by the
// timeout.
package fleet

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// hedgePercentile of observed latency is when an adaptive hedge fires.
	hedgePercentile = 0.95
	// hedgeMinDelay and hedgeMaxDelay clamp the adaptive delay. Before
	// any latency is observed the delay is hedgeMaxDelay.
	hedgeMinDelay = 10 * time.Millisecond
	hedgeMaxDelay = 2 * time.Second
	// hedgeEvery routed queries earn one hedge: at most ~10% extra
	// upstream load from hedging. hedgeBurst caps the hedges saved up.
	hedgeEvery = 10
	hedgeBurst = 8
)

// hedgeWindow is the latency ring-buffer size; enough history for a
// stable percentile, small enough to track load shifts. Once the window
// is full the delay is recomputed every hedgeRefresh observations, so a
// latency shift moves it within that many queries.
const (
	hedgeWindow  = 128
	hedgeRefresh = 16
)

// hedger tracks shard latencies and meters hedges. Safe for
// concurrent use.
type hedger struct {
	// fixed, when > 0, replaces the adaptive delay. Tests that need a
	// hedge to fire at a known moment set it before the router serves.
	fixed time.Duration
	// adaptive is the delay a query waits before it is hedged: the
	// hedgePercentile of recent shard latencies, clamped to
	// [hedgeMinDelay, hedgeMaxDelay]. Written by observe, read lock-free
	// by every query.
	adaptive atomic.Int64

	mu      sync.Mutex
	samples [hedgeWindow]time.Duration
	n       int // filled entries (caps at hedgeWindow)
	idx     int // next write position
	stale   int // observations since adaptive was recomputed
	credit  int // routed queries not yet spent on a hedge
}

func newHedger() *hedger {
	h := &hedger{credit: hedgeBurst * hedgeEvery}
	h.adaptive.Store(int64(hedgeMaxDelay)) // nothing observed yet
	return h
}

// observe records how long a primary shard took to answer and keeps the
// adaptive delay up to date: after every observation until the window
// fills, then every hedgeRefresh.
func (h *hedger) observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples[h.idx] = d
	h.idx = (h.idx + 1) % hedgeWindow
	if h.n < hedgeWindow {
		h.n++
	} else if h.stale++; h.stale < hedgeRefresh {
		return
	}
	h.stale = 0
	var sorted [hedgeWindow]time.Duration
	s := sorted[:h.n]
	copy(s, h.samples[:h.n])
	slices.Sort(s)
	i := min(int(float64(h.n)*hedgePercentile), h.n-1)
	h.adaptive.Store(int64(min(max(s[i], hedgeMinDelay), hedgeMaxDelay)))
}

// delay returns how long to wait before hedging the current query.
func (h *hedger) delay() time.Duration {
	if h.fixed > 0 {
		return h.fixed
	}
	return time.Duration(h.adaptive.Load())
}

// earn credits the budget for one routed query.
func (h *hedger) earn() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.credit = min(h.credit+1, hedgeBurst*hedgeEvery)
}

// take spends one hedge's worth of credit; false means the budget is
// exhausted and the hedge must not fire.
func (h *hedger) take() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.credit < hedgeEvery {
		return false
	}
	h.credit -= hedgeEvery
	return true
}
