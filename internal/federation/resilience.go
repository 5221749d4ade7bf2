// Fault tolerance of the federation read path. Decentralised Linked
// Data sources are unreliable by nature: a federated query must survive
// slow or failing endpoints instead of failing outright. Each source
// access runs under a per-source deadline with bounded, jitter-backed
// retries; repeated failures open a per-source circuit breaker, and
// while a source's circuit is open (or its access keeps failing) the
// query proceeds over the remaining sources and the result set is
// annotated with the degraded source names — partial answers with a
// marker, never an error.
package federation

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// AccessFunc is the availability hook of a source: it is invoked (under
// the per-source deadline) before the federator evaluates patterns
// against the source's data, standing in for the network round trip a
// remote endpoint would need. A nil AccessFunc marks a local in-memory
// source that cannot fail; a non-nil one that returns an error (or
// overruns the deadline) marks the source unavailable for this query.
// Fault-injection tests and future remote backends both plug in here.
type AccessFunc func(ctx context.Context) error

// Resilience tunes the fault-tolerant read path.
type Resilience struct {
	// SourceTimeout is the deadline of a single access attempt.
	SourceTimeout time.Duration
	// Retries is how many times a failed access is retried (attempts =
	// Retries + 1).
	Retries int
	// BackoffBase is the first retry delay; it doubles per retry, with
	// full jitter, capped at BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Breaker configures the per-source circuit breaker.
	Breaker BreakerConfig
}

// DefaultResilience returns production-shaped defaults.
func DefaultResilience() Resilience {
	return Resilience{
		SourceTimeout: 2 * time.Second,
		Retries:       2,
		BackoffBase:   50 * time.Millisecond,
		BackoffMax:    time.Second,
		Breaker:       BreakerConfig{}.withDefaults(),
	}
}

func (r Resilience) withDefaults() Resilience {
	d := DefaultResilience()
	if r.SourceTimeout <= 0 {
		r.SourceTimeout = d.SourceTimeout
	}
	if r.Retries < 0 {
		r.Retries = d.Retries
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = d.BackoffBase
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = d.BackoffMax
	}
	r.Breaker = r.Breaker.withDefaults()
	return r
}

// guard is the per-source fault-tolerance state. Guards are shared
// between a base Federator and every WithLinks snapshot, so breaker
// state persists across snapshot publications.
type guard struct {
	breaker *Breaker
	mu      sync.Mutex
	rng     *rand.Rand
}

func newGuard(cfg BreakerConfig, seed int64) *guard {
	return &guard{breaker: NewBreaker(cfg), rng: rand.New(rand.NewSource(seed))}
}

func (g *guard) jitter(d time.Duration) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	if d <= 0 {
		return 0
	}
	return time.Duration(g.rng.Int63n(int64(d)) + 1)
}

// SourceStatus is the health view of one federated source.
type SourceStatus struct {
	Name string
	// Guarded is false for local in-memory sources that cannot fail.
	Guarded bool
	Breaker BreakerState
}

// SourceStatuses reports the per-source circuit state, in registration
// order. Snapshots share guards with their base federator, so statuses
// read from any of them agree.
func (f *Federator) SourceStatuses() []SourceStatus {
	out := make([]SourceStatus, len(f.sources))
	for i, src := range f.sources {
		out[i] = SourceStatus{Name: src.Name, Guarded: src.Access != nil}
		if g := f.guards[i]; g != nil {
			out[i].Breaker = g.breaker.State()
		}
	}
	return out
}

// evalCtx carries the per-evaluation fault state: the request context
// and the per-source availability decisions. Availability is decided
// entirely up front — newEvalCtx probes every guarded source in the
// plan's probe set in parallel (one probe per source per query, with
// deadline, retries and breaker), before any pattern is evaluated.
// Deciding availability ahead of evaluation makes Degraded a pure
// function of the plan and the sources' health: it cannot vary with
// join order or how early the row stream runs dry, which the golden
// harness relies on. Once the probes are in, an evalCtx belongs to the
// one goroutine that evaluates the query.
type evalCtx struct {
	ctx      context.Context
	left     int    // steps until cancelled next looks at ctx
	avail    []bool // per source index; true = usable by this query
	degraded []int  // probed sources that failed, ascending
	// stats is this query's observation table; nil when no group of the
	// plan holds two patterns, so nothing is ranked (see plan.obs).
	stats *RuntimeStats
	// learned is the plan's validated cross-query observation table, or
	// nil when it holds no usable (or only stale) data.
	learned *obsTable
	// pats is the plan's compiled pattern table by stage id: plan.pats
	// itself, or a copy with constants resolved afresh when the plan was
	// compiled before the dictionary held them all.
	pats []cpattern
}

// checkInterval is how many steps of evaluation — input rows entering a
// stage, rows a pattern emits — pass between two looks at the context.
const checkInterval = 1024

// cancelled counts one step of evaluation and reports whether the
// query's context is done, looking at it on the first step and then once
// per checkInterval: an evaluation outlives its deadline by at most
// that many steps, and a query that is never cancelled pays a decrement
// per step. Once the context is done the countdown is left run out, so
// every later step finds it done too.
func (ec *evalCtx) cancelled() bool {
	if ec.left--; ec.left > 0 {
		return false
	}
	if ec.ctx.Err() != nil {
		return true
	}
	ec.left = checkInterval
	return false
}

// learnedExpansion returns the learned per-row multiplier of a stage
// from earlier queries over the same cached plan, if any.
func (ec *evalCtx) learnedExpansion(stage int) (float64, bool) {
	if ec.learned == nil {
		return 0, false
	}
	return ec.learned.expansion(stage)
}

// newEvalCtx probes the plan's guarded sources concurrently and
// records the availability verdicts. probe holds guarded source
// indexes only (see plan.probe); unguarded local sources are always
// available. With stats non-nil each probe's latency is recorded as the
// source's observed round-trip cost.
func (f *Federator) newEvalCtx(ctx context.Context, probe []int, stats *RuntimeStats) *evalCtx {
	if ctx == nil {
		ctx = context.Background()
	}
	ec := &evalCtx{ctx: ctx, avail: make([]bool, len(f.sources)), stats: stats}
	for i := range ec.avail {
		ec.avail[i] = f.guards[i] == nil
	}
	if len(probe) == 0 {
		return ec
	}
	results := make([]bool, len(probe))
	var wg sync.WaitGroup
	for k, si := range probe {
		wg.Add(1)
		go func(k, si int) {
			defer wg.Done()
			start := time.Now()
			results[k] = f.probeSource(ctx, si)
			if stats != nil {
				stats.recordProbe(si, time.Since(start))
			}
		}(k, si)
	}
	wg.Wait()
	for k, si := range probe {
		ec.avail[si] = results[k]
		if !results[k] {
			ec.degraded = append(ec.degraded, si)
		}
	}
	return ec
}

// available reports whether source si may be used by this evaluation.
func (ec *evalCtx) available(si int) bool { return ec.avail[si] }

func (ec *evalCtx) degradedNames(f *Federator) []string {
	if len(ec.degraded) == 0 {
		return nil
	}
	names := make([]string, 0, len(ec.degraded))
	for _, si := range ec.degraded {
		names = append(names, f.sources[si].Name)
	}
	sort.Strings(names)
	return names
}

// probeSource runs the source's access hook under the resilience
// policy: per-attempt deadline, bounded retries with jittered
// exponential backoff, and the circuit breaker around the whole
// outcome.
func (f *Federator) probeSource(ctx context.Context, si int) bool {
	g := f.guards[si]
	if !g.breaker.Allow() {
		return false // open circuit: skip the source without touching it
	}
	access := f.sources[si].Access
	res := f.res
	backoff := res.BackoffBase
	for attempt := 0; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, res.SourceTimeout)
		err := access(actx)
		cancel()
		if err == nil {
			g.breaker.Record(true)
			return true
		}
		if attempt >= res.Retries || ctx.Err() != nil {
			g.breaker.Record(false)
			return false
		}
		select {
		case <-time.After(g.jitter(backoff)):
		case <-ctx.Done():
			g.breaker.Record(false)
			return false
		}
		backoff *= 2
		if backoff > res.BackoffMax {
			backoff = res.BackoffMax
		}
	}
}
