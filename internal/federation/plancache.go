package federation

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultPlanCacheSize is the plan-cache capacity used when a
// non-positive size is requested.
const DefaultPlanCacheSize = 512

// PlanCache is a bounded LRU cache of compiled query plans keyed by
// query shape: the text with its constants lifted out (sparql.Shape),
// so the texts of one template, whatever their IRIs, literals and
// LIMIT/OFFSET counts, share one plan, and each evaluation binds its
// own text's constants. Plans depend only on the federation's sources
// and their statistics — never on the sameAs link set — so one cache is
// shared across every WithLinks snapshot and steady-state /query
// traffic skips both the parser and the join planner. Safe for
// concurrent use.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type planEntry struct {
	key  string
	plan *plan
}

// NewPlanCache returns a cache holding up to capacity plans;
// capacity <= 0 selects DefaultPlanCacheSize.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// SetPlanCache installs a plan cache consulted by QueryContext. A nil
// cache disables caching. Not safe concurrently with queries. The
// cache is carried over to WithLinks snapshots, so install it once on
// the base federator.
func (f *Federator) SetPlanCache(pc *PlanCache) { f.plans = pc }

// PlanCacheStats returns the hit/miss counters of the installed plan
// cache, or zeros when none is installed.
func (f *Federator) PlanCacheStats() (hits, misses uint64) {
	if f.plans == nil {
		return 0, 0
	}
	return f.plans.Stats()
}

func (c *PlanCache) get(key []byte) *plan {
	c.mu.Lock()
	el, ok := c.entries[string(key)]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return el.Value.(*planEntry).plan
}

func (c *PlanCache) put(key string, p *plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Another goroutine planned the same shape concurrently; keep
		// the incumbent and refresh its recency.
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&planEntry{key: key, plan: p})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).key)
		c.evictions.Add(1)
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *PlanCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many plans, keyed by query shape, have been
// evicted by the LRU bound: a cache holding fewer shapes than the
// traffic cycles through re-plans, which the
// alexd_plan_cache_evictions_total metric makes visible.
func (c *PlanCache) Evictions() uint64 {
	return c.evictions.Load()
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
