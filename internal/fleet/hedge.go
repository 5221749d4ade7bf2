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
// BudgetRatio, not by the timeout.
package fleet

import (
	"sort"
	"sync"
	"time"
)

// HedgeConfig tunes hedged failover reads.
type HedgeConfig struct {
	// Disabled turns hedging off entirely.
	Disabled bool
	// Delay, when > 0, is a fixed hedge delay. 0 selects the adaptive
	// delay: the Percentile of recent shard latencies, clamped to
	// [MinDelay, MaxDelay].
	Delay time.Duration
	// Percentile of observed latency after which a hedge fires
	// (0 means 0.95).
	Percentile float64
	// MinDelay/MaxDelay clamp the adaptive delay (defaults 10ms / 2s).
	// Before any latency is observed the delay is MaxDelay.
	MinDelay time.Duration
	MaxDelay time.Duration
	// BudgetRatio is the hedge tokens earned per routed query
	// (0 means 0.1: at most ~10% extra upstream load from hedging).
	BudgetRatio float64
	// BudgetBurst caps the token bucket (0 means 8).
	BudgetBurst float64
}

func (c HedgeConfig) withDefaults() HedgeConfig {
	if c.Percentile <= 0 || c.Percentile > 1 {
		c.Percentile = 0.95
	}
	if c.MinDelay <= 0 {
		c.MinDelay = 10 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.BudgetRatio <= 0 {
		c.BudgetRatio = 0.1
	}
	if c.BudgetBurst <= 0 {
		c.BudgetBurst = 8
	}
	return c
}

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
	tokens  float64
}

func newHedger(cfg HedgeConfig) *hedger {
	c := cfg.withDefaults()
	return &hedger{cfg: c, tokens: c.BudgetBurst}
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
		return h.cfg.MaxDelay
	}
	tmp := make([]time.Duration, h.n)
	copy(tmp, h.samples[:h.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(float64(h.n) * h.cfg.Percentile)
	if i >= h.n {
		i = h.n - 1
	}
	d := tmp[i]
	if d < h.cfg.MinDelay {
		d = h.cfg.MinDelay
	}
	if d > h.cfg.MaxDelay {
		d = h.cfg.MaxDelay
	}
	return d
}

// earn credits the budget for one routed query.
func (h *hedger) earn() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tokens += h.cfg.BudgetRatio
	if h.tokens > h.cfg.BudgetBurst {
		h.tokens = h.cfg.BudgetBurst
	}
}

// take spends one token; false means the budget is exhausted and the
// hedge must not fire.
func (h *hedger) take() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens < 1 {
		return false
	}
	h.tokens--
	return true
}
