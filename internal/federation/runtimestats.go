// Runtime cardinality observation for adaptive query execution. Layer
// 1 of the adaptive read path (see adaptive.go): every executed stage
// of a group with an order to choose records how many rows went in and
// how many came out, and every source probe records its latency. A
// stage is counted once, at its boundary, rather than per emitted row,
// so observation cost is independent of result size. A query's
// RuntimeStats belong to the goroutine evaluating it and are plain
// integers; they are folded into the plan's obsTable when evaluation
// ends, which is how the plan cache learns real cardinalities across
// requests, and that table, shared by concurrent queries, is atomics.
package federation

import (
	"sync"
	"sync/atomic"
	"time"
)

// stageCount is one stage's cumulative observation: input rows, emitted
// rows, and how many executions contributed.
type stageCount struct {
	in, out, runs uint64
}

// expansion returns the observed per-input-row output multiplier, or
// ok=false when the stage has never run with a non-empty input (an
// empty input observes nothing about selectivity).
func (s stageCount) expansion() (perRow float64, ok bool) {
	if s.runs == 0 || s.in == 0 {
		return 0, false
	}
	return float64(s.out) / float64(s.in), true
}

// stageObs is a stageCount that concurrent queries add to and read.
// Always address a stageObs through a pointer or index — it embeds
// atomics and must not be copied.
type stageObs struct {
	in   atomic.Uint64
	out  atomic.Uint64
	runs atomic.Uint64
}

func (s *stageObs) load() stageCount {
	return stageCount{in: s.in.Load(), out: s.out.Load(), runs: s.runs.Load()}
}

// RuntimeStats collects the observations of one query evaluation:
// per-stage row counters (indexed by the plan's stage ids) and
// per-source probe latencies. Only newEvalCtx's probes write it from
// other goroutines, each its own source's entry, and they are waited
// for before anything is read.
type RuntimeStats struct {
	stages  []stageCount
	probeNs []int64
}

func newRuntimeStats(nstages, nsources int) *RuntimeStats {
	return &RuntimeStats{
		stages:  make([]stageCount, nstages),
		probeNs: make([]int64, nsources),
	}
}

// record notes one execution of a stage: in rows entered, out rows
// were emitted.
func (rs *RuntimeStats) record(stage, in, out int) {
	s := &rs.stages[stage]
	s.in += uint64(in)
	s.out += uint64(out)
	s.runs++
}

// recordProbe notes the observed availability-probe latency of source
// si, the stand-in for a remote endpoint's round-trip time.
func (rs *RuntimeStats) recordProbe(si int, d time.Duration) {
	rs.probeNs[si] = int64(d)
}

// probeMillis returns the probe latency of source si in whole
// milliseconds. Quantizing to milliseconds keeps local in-memory
// probes (microseconds) at exactly zero, so latency weighting cannot
// perturb plans on all-local federations.
func (rs *RuntimeStats) probeMillis(si int) int64 {
	return rs.probeNs[si] / int64(time.Millisecond)
}

// foldInto merges this query's stage observations into the plan's
// learned table. Stages that never ran contribute nothing.
func (rs *RuntimeStats) foldInto(o *obsTable) {
	if o == nil {
		return
	}
	for i, s := range rs.stages {
		if s.runs == 0 {
			continue
		}
		t := &o.stages[i]
		t.in.Add(s.in)
		t.out.Add(s.out)
		t.runs.Add(s.runs)
	}
}

// Link-set drift tolerance of a learned table: observations are
// invalidated when the installed link count moved by more than
// 1/staleLinkDiv of the count they were learned under, plus
// staleLinkSlack links of absolute headroom so small link sets are not
// perpetually stale while ALEX's episodes churn a handful of links.
const (
	staleLinkDiv   = 8
	staleLinkSlack = 8
)

// obsTable is the learned cardinality store attached to a plan. It
// outlives individual queries via the plan cache; every execution
// folds its RuntimeStats in and later executions rank patterns by what
// earlier ones observed. links remembers the sameAs link count
// the observations were learned under (-1 before the first
// validation): cardinalities across sources depend on the link set, so
// when ALEX's episodes move the count far enough the table resets and
// bumps its epoch rather than steering plans with stale stats.
type obsTable struct {
	mu     sync.Mutex
	links  int
	epoch  uint64
	stages []stageObs
}

func newObsTable(nstages int) *obsTable {
	return &obsTable{links: -1, stages: make([]stageObs, nstages)}
}

// validate checks the table against the current link count, resetting
// it (and bumping the epoch) when the observations are stale. It
// reports whether the table holds usable observations afterwards.
func (o *obsTable) validate(linkCount int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.links < 0 {
		o.links = linkCount
		return o.hasDataLocked()
	}
	d := linkCount - o.links
	if d < 0 {
		d = -d
	}
	if d > o.links/staleLinkDiv+staleLinkSlack {
		for i := range o.stages {
			s := &o.stages[i]
			s.in.Store(0)
			s.out.Store(0)
			s.runs.Store(0)
		}
		o.links = linkCount
		o.epoch++
		return false
	}
	return o.hasDataLocked()
}

func (o *obsTable) hasDataLocked() bool {
	for i := range o.stages {
		if o.stages[i].runs.Load() > 0 {
			return true
		}
	}
	return false
}

// Epoch returns the observation epoch: it increments every time the
// table is invalidated by link-set drift.
func (o *obsTable) Epoch() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.epoch
}

// expansion returns the learned per-row multiplier of a stage. Reads
// are lock-free atomics: a concurrent reset can hand a ranking mixed
// counters, which may pick a slower (never a wrong) order — any
// binding-safe order is answer-identical.
func (o *obsTable) expansion(stage int) (float64, bool) {
	return o.stages[stage].load().expansion()
}

// adaptiveMetrics are process-lifetime counters of the ranker,
// shared by a base Federator and all its WithLinks snapshots (like
// guards) so /metrics sees one monotone series across snapshot
// publications.
type adaptiveMetrics struct {
	replans     atomic.Uint64
	learnedHits atomic.Uint64
}

// AdaptiveStats returns the cumulative count of rankings made after a
// group's first stage and of queries that started with usable learned
// cardinalities.
func (f *Federator) AdaptiveStats() (replans, learnedHits uint64) {
	if f.ametrics == nil {
		return 0, 0
	}
	return f.ametrics.replans.Load(), f.ametrics.learnedHits.Load()
}
