// Hedged failover reads: a query goes to one shard, and because every
// shard serves full reads off the replicated snapshots, a slow or
// failed shard's query can be re-issued to any healthy peer and the
// first answer wins — this is the read path's failover. The hedge fires
// after an adaptive delay (a percentile of recently observed shard
// latencies, so only genuine stragglers pay it), or at once when the
// shard fails outright, and is limited by a token-bucket retry budget:
// every routed query earns a fraction of a token, every hedge spends
// one, so hedging can never multiply the upstream request rate into a
// brownout — under a 100% slow fleet the extra load is bounded by
// 1/hedgeEvery, not by the timeout.
package fleet

import (
	"sort"
	"sync"
	"time"
)

// HedgeConfig holds what a deployment says about hedged failover reads.
type HedgeConfig struct {
	// Disabled turns hedging off entirely.
	Disabled bool
	// Delay, when > 0, is a fixed hedge delay. 0 selects the adaptive
	// delay: the hedgePercentile of recent shard latencies, clamped to
	// [hedgeMinDelay, hedgeMaxDelay].
	Delay time.Duration
}

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
// stable percentile, small enough to track load shifts.
const hedgeWindow = 128

// hedger tracks shard latencies and meters hedges. Safe for
// concurrent use.
type hedger struct {
	cfg HedgeConfig

	mu      sync.Mutex
	samples [hedgeWindow]time.Duration
	n       int // filled entries (caps at hedgeWindow)
	idx     int // next write position
	credit  int // routed queries not yet spent on a hedge
}

func newHedger(cfg HedgeConfig) *hedger {
	return &hedger{cfg: cfg, credit: hedgeBurst * hedgeEvery}
}

// observe records how long a primary shard took to answer.
func (h *hedger) observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples[h.idx] = d
	h.idx = (h.idx + 1) % hedgeWindow
	if h.n < hedgeWindow {
		h.n++
	}
}

// delay returns how long to wait before hedging the current query.
func (h *hedger) delay() time.Duration {
	if h.cfg.Delay > 0 {
		return h.cfg.Delay
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return hedgeMaxDelay
	}
	tmp := make([]time.Duration, h.n)
	copy(tmp, h.samples[:h.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(float64(h.n) * hedgePercentile)
	if i >= h.n {
		i = h.n - 1
	}
	return min(max(tmp[i], hedgeMinDelay), hedgeMaxDelay)
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
