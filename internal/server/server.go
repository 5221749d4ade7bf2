// Package server is alexd's serving layer: a concurrent HTTP/JSON API
// over a running ALEX instance, exposing federated SPARQL queries and
// the answer-level feedback channel that drives the paper's exploration
// loop (§3.2).
//
// The architecture is single-writer / many-reader with snapshot
// isolation. Exactly one writer goroutine owns the *core.System: all
// feedback flows through a bounded queue into it, and the writer
// brackets the feedback into episodes (BeginEpisode … FinishEpisode).
// One rule ends an episode: EpisodeSize link items, or graceful
// shutdown. Journal replay batches by the same count, so a recovered
// server is the run that never crashed. The writer publishes an
// immutable Snapshot — the candidate link set, its links kept sorted,
// and a Federator frozen over them — through an atomic.Pointer after
// every episode, and every FlushInterval if feedback arrived since the
// last publication, so a rejection leaves the served links promptly
// without closing the open episode. A publication is built from the
// previous one: the engine hands over the links it gained and lost
// since (Engine.Changes), sorted, and the writer merges them into the
// previous snapshot's sorted slice, builds the set at its size from
// the result and indexes it for sameAs without sorting again. Only the
// first publication, in New, starts from the empty snapshot, with the
// whole set as its changes.
// Query handlers load the current snapshot and evaluate against it
// without taking any lock, so readers never block on feedback
// processing and never observe a half-updated link set. A snapshot is
// never mutated after publication (federation.Federator.WithLinks
// enforces the frozen read path).
//
// Durability: with a data directory configured, every accepted feedback
// item is appended to a write-ahead journal and fsynced BEFORE the 202
// ack leaves the server, so the ack is a real durability promise — an
// acknowledged item survives any crash. The writer checkpoints full
// ALEX state (candidate links, policy returns, blacklist, rollback log)
// every CheckpointEvery episodes and again on graceful shutdown — but
// only once every journaled record has been applied, since a checkpoint
// resets the journal and must never strand a queued, already-acked
// item; restart loads the checkpoint and replays only the journal tail,
// idempotently (a clean shutdown needs no replay at all), and refuses to
// start over a checkpoint that does not read back.
// Torn or corrupt journal tails are truncated on open. When the journal
// cannot be written, /feedback returns 503 instead of lying with a 202.
//
// The federated sources are local stores, which cannot fail: the one
// failure a query has is its deadline. A /query is evaluated on its
// handler's goroutine, start to finish, under the request's deadline:
// the evaluator looks at the context as it goes and stops within one
// check interval of the deadline (or of the client going away), the
// handler answers 504, and only then does it give back its
// MaxConcurrentQueries slot — so admission bounds the evaluations
// running, their CPU and their memory, not just handlers.
//
// Also: backpressure (HTTP 429 + Retry-After when the feedback queue is
// full), panic-recovery middleware, graceful shutdown that drains queued
// feedback and finishes the open episode, and a built-in metrics
// registry exported at /metrics in Prometheus text format.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/cluster"
	"alex/internal/core"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
	"alex/internal/wal"
)

// Engine is the feedback-consuming side of the writer goroutine.
// *core.System satisfies it; tests substitute slow or instrumented
// implementations. Changes hands each publication the candidate set's
// changes since the last one, sorted, and the whole set as gained at
// the first call after construction or Restore (core.System.Changes).
// Save and Restore are the full-state checkpoint (core/snapshot.go).
type Engine interface {
	BeginEpisode()
	Feedback(l links.Link, positive bool)
	FinishEpisode() core.EpisodeStats
	Changes() (added, removed []links.Link)
	Episode() int
	Save(w io.Writer) error
	Restore(r io.Reader) error
}

// Config holds the serving-layer tunables.
type Config struct {
	// EpisodeSize is the number of link-level feedback items the writer
	// batches into one episode before improving the policy and
	// publishing a fresh snapshot.
	EpisodeSize int
	// QueueSize bounds the feedback queue (answer-level items). A full
	// queue yields 429 to clients, never a silent drop.
	QueueSize int
	// FlushInterval is the publication interval: every interval, if
	// feedback was applied since the last publication, the writer
	// publishes the open episode's candidates, so low-traffic feedback
	// still reaches the served links promptly. It never ends an episode.
	FlushInterval time.Duration
	// QueryTimeout caps per-request query evaluation time. Requests may
	// ask for less via timeout_ms, never more.
	QueryTimeout time.Duration
	// DrainTimeout bounds how long Close waits for the writer to drain
	// queued feedback and finish the open episode.
	DrainTimeout time.Duration
	// DataDir, when non-empty, enables the write-ahead feedback journal
	// and state checkpoints in that directory. Empty keeps the pre-WAL
	// in-memory behavior (acks promise ordering, not durability).
	DataDir string
	// CheckpointEvery is how many completed episodes elapse between
	// checkpoints (plus one final checkpoint at graceful shutdown).
	CheckpointEvery int
	// FS overrides the journal's file operations; nil uses the real
	// file system. Fault-injection tests pass a faultfs.FS.
	FS wal.FS
	// Resilience is ignored: the federated sources are local stores,
	// with no deadline, retry or breaker of their own.
	//
	// Deprecated: nothing reads it. It remains until the end-to-end
	// benchmark stops setting it.
	Resilience federation.Resilience
	// PlanCacheSize bounds the LRU cache of compiled query plans, keyed
	// by query shape and shared by all published snapshots; 0 or
	// negative means federation.DefaultPlanCacheSize.
	PlanCacheSize int
	// MaxConcurrentQueries caps in-flight /query evaluations; excess
	// requests wait for a slot until their deadline, then get 503 +
	// Retry-After. A slot is held until its evaluation has finished or
	// stopped at its deadline. 0 means unlimited. Fleet routers use this
	// so one shard's overload surfaces as backpressure instead of
	// timeouts.
	MaxConcurrentQueries int
	// Fleet, when non-nil, runs this server as one shard of a
	// partitioned fleet (see fleet.go). It owns a contiguous range of
	// the entity-hash space, replicates its link snapshot to peers and
	// serves full reads from the union.
	Fleet *FleetConfig
	// Stores, when non-nil, is the disk-backed segment store set behind
	// the federation sources (cmd/alexd with -data), reported on
	// /healthz. It is committed before the server starts, and the
	// server never writes it: feedback changes the link set, not the
	// triples.
	Stores *store.Set
	// StoreLoadSeconds records how long startup spent building or
	// cold-starting the triple stores (set by cmd/alexd); exported as
	// the alexd_snapshot_load_seconds gauge so mmap cold starts are
	// comparable to parse/build starts.
	StoreLoadSeconds float64
}

// DefaultConfig returns serving defaults suitable for interactive use.
func DefaultConfig() Config {
	return Config{
		EpisodeSize:     100,
		QueueSize:       1024,
		FlushInterval:   250 * time.Millisecond,
		QueryTimeout:    10 * time.Second,
		DrainTimeout:    10 * time.Second,
		CheckpointEvery: 16,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.EpisodeSize < 1 {
		c.EpisodeSize = d.EpisodeSize
	}
	if c.QueueSize < 1 {
		c.QueueSize = d.QueueSize
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = d.FlushInterval
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = d.QueryTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = d.DrainTimeout
	}
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = d.CheckpointEvery
	}
	return c
}

// Snapshot is one published, immutable view of the link set: queries
// evaluate against Fed, /links serves Sorted, which holds the links of
// Links in (E1, E2) order. All are frozen at publication time, and the
// next publication merges its changes into Sorted. On a fleet shard,
// Links is the FULL served set (own partition ∪ newest peer manifests)
// while Own, sorted too, is the shard's authoritative slice — what it
// replicates out; Episode is always the local engine's episode (peer
// manifests republish without advancing it). Standalone, Own is Sorted.
type Snapshot struct {
	Fed       *federation.Federator
	Links     links.Set
	Sorted    []links.Link
	Own       []links.Link
	Version   uint64
	Episode   int
	Published time.Time
}

// feedbackItem is one queued answer-level feedback: the links an answer
// row used, with one verdict for all of them. seq is the item's journal
// sequence number (0 when journaling is off).
type feedbackItem struct {
	seq      uint64
	links    []links.Link
	positive bool
}

// RecoveryStats reports what startup recovery did.
type RecoveryStats struct {
	// CheckpointSeq is the journal sequence the loaded checkpoint
	// covered (0 = started from the engine's initial state).
	CheckpointSeq uint64
	// Replayed is the number of journal records applied on top.
	Replayed int
}

// Server serves federated queries and routes feedback into ALEX.
type Server struct {
	cfg  Config
	eng  Engine
	dict *rdf.Dict
	base *federation.Federator
	// plans is the compiled-plan LRU shared by the base federator and
	// every published snapshot (plans are link-independent).
	plans *federation.PlanCache

	// Durability layer; log is nil when DataDir is unset. logMu
	// serializes journal appends WITH the queue-capacity check, so a
	// journaled record always has a reserved queue slot (no
	// acked-but-dropped items).
	log *wal.Log
	// The fsync-under-lock IS the design: producers must not observe a
	// reserved slot without a durable record. The mutex serialises
	// competing fsyncs; it does not batch them — every Append syncs
	// once. The queue send under logMu cannot block — the capacity
	// check above it holds the reservation.
	logMu    sync.Mutex
	recovery RecoveryStats

	snap     atomic.Pointer[Snapshot]
	queue    chan feedbackItem
	stop     chan struct{}
	die      chan struct{} // crash simulation: writer exits without drain
	done     chan struct{}
	closing  sync.Once
	aborting sync.Once

	// querySem is the /query admission semaphore (nil = unlimited).
	querySem chan struct{}

	// Fleet role (all nil/zero when standalone; see fleet.go). boot
	// stamps this process's manifests; peerMu guards peerSets and
	// peerClients; kick wakes the replicator, repub asks the writer to
	// republish after a peer manifest changes a peer's links, repCancel
	// (Close, Abort) ends the replicator and its exchange in flight, and
	// repDone closes when the replicator goroutine exits.
	fleet        *FleetConfig
	boot         int64
	ranges       []cluster.HashRange
	peerMu       sync.Mutex
	peerSets     map[int]peerState
	peerClients  map[int]*Client
	kick         chan struct{}
	repub        chan struct{}
	repCancel    context.CancelFunc
	repDone      chan struct{}
	fleetMetrics fleetMetrics

	// w is the writer goroutine's state. New touches it during replay,
	// strictly before the goroutine starts.
	w writerState

	mux     http.Handler
	reg     *Registry
	metrics serverMetrics
}

// writerState is the single-writer bookkeeping: the open episode, the
// snapshot version counter, and the checkpoint cursor.
type writerState struct {
	pending   int       // link-level items in the open episode
	epStart   time.Time // when the open episode began
	version   uint64    // last published snapshot version
	stale     bool      // feedback applied since the last publication
	sinceCkpt int       // episodes completed since the last checkpoint
	applied   uint64    // journal seq of the newest applied item
	ckptSeq   uint64    // journal seq covered by the last checkpoint
	replaying bool      // suppress per-episode publication during replay
	// folded holds, per peer, the manifest the last publication served
	// (fleet only).
	folded map[int]peerState
}

type serverMetrics struct {
	queries             *Counter
	queryErrors         *Counter
	queryTimeouts       *Counter
	queryAdmissionDrops *Counter
	queryRows           *Counter
	queryDuration       *Histogram
	feedbackQueued      *Counter
	feedbackThrottled   *Counter
	feedbackLinks       *Counter
	episodes            *Counter
	episodeDuration     *Histogram
	explorations        *Counter
	exploredLinks       *Counter
	rollbacks           *Counter
	sparedLinks         *Counter
	explorationLinks    *Histogram
	rollbackGroupLinks  *Histogram
	panics              *Counter
	journalFsync        *Histogram
	journalErrors       *Counter
	checkpoints         *Counter
	checkpointErrors    *Counter
	checkpointDuration  *Histogram
}

// New builds a Server over an engine and the federation sources the
// queries run against. All graphs must share dict. With Config.DataDir
// set, New first recovers: it restores the checkpoint into the engine
// (failing, and naming the file, when it does not read back) and replays the journal tail (idempotently — records a
// checkpoint already covers are skipped), so the first published
// snapshot already reflects every previously acknowledged feedback
// item. The writer goroutine starts before New returns and the initial
// snapshot (version 1) is published, so queries are answerable at once.
func New(eng Engine, dict *rdf.Dict, sources []federation.Source, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	base := federation.New(dict)
	plans := federation.NewPlanCache(cfg.PlanCacheSize)
	base.SetPlanCache(plans)
	for _, src := range sources {
		if err := base.Add(src); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:   cfg,
		eng:   eng,
		dict:  dict,
		base:  base,
		plans: plans,
		queue: make(chan feedbackItem, cfg.QueueSize),
		stop:  make(chan struct{}),
		die:   make(chan struct{}),
		done:  make(chan struct{}),
		reg:   NewRegistry(),
	}
	if cfg.MaxConcurrentQueries > 0 {
		s.querySem = make(chan struct{}, cfg.MaxConcurrentQueries)
	}
	s.registerMetrics()
	if cfg.Fleet != nil {
		if err := s.initFleet(cfg.Fleet); err != nil {
			return nil, err
		}
	}
	if cfg.DataDir != "" {
		if err := s.recover(); err != nil {
			if s.log != nil {
				s.log.Close() //lint:ignore syncerr the recovery error wins; close releases the journal handle
			}
			return nil, err
		}
	}
	s.publish()
	s.mux = s.routes()
	go s.writer()
	if s.fleet != nil {
		var ctx context.Context
		ctx, s.repCancel = context.WithCancel(context.Background())
		go s.replicator(ctx)
	}
	return s, nil
}

// Builds that had the cross-shard prepare/commit protocol began the
// protocol's journal records with a 0x00 byte. This build does not read
// them: a journal record is a /feedback body, so recover refuses such a
// directory by name instead of misreading it. A checkpoint this build
// does not read is the engine's Restore to refuse by name.
const (
	protocolRecordSentinel = 0x00
	protocolStateHint      = "was written by a build with the cross-shard prepare/commit protocol, which this build does not read; start from an empty data directory"
)

// recover opens the journal and rebuilds the acknowledged state:
// checkpoint restore plus journal-tail replay through the exact episode
// batching the writer uses, so a recovered system converges to the same
// state as one that never crashed — from the journal alone or from a
// checkpoint and its tail: a checkpoint carries the engine's random
// stream positions along with what it learned, so replayed approvals
// explore as they did the first time
// (TestCrashRecoveryEquivalenceAfterCheckpoint).
func (s *Server) recover() error {
	log, err := wal.Open(s.cfg.DataDir, s.cfg.FS)
	if err != nil {
		return err
	}
	s.log = log
	seq, state, found, err := log.LatestCheckpoint()
	if err != nil {
		return err
	}
	if found {
		if err := s.eng.Restore(bytes.NewReader(state)); err != nil {
			return fmt.Errorf("server: restore checkpoint (seq %d): %w", seq, err)
		}
		s.w.ckptSeq = seq
		s.w.applied = seq
		s.recovery.CheckpointSeq = seq
	}
	s.w.replaying = true
	n, err := log.Replay(s.w.ckptSeq, func(rec wal.Record) error {
		if len(rec.Data) > 0 && rec.Data[0] == protocolRecordSentinel {
			return fmt.Errorf("server: journal record %d %s", rec.Seq, protocolStateHint)
		}
		var req FeedbackRequest
		if err := json.Unmarshal(rec.Data, &req); err != nil {
			return fmt.Errorf("server: journal record %d: %w", rec.Seq, err)
		}
		it := feedbackItem{seq: rec.Seq, positive: req.Approve}
		for _, lj := range req.Links {
			l, err := s.resolveLink(lj)
			if err != nil {
				return fmt.Errorf("server: journal record %d: %w (were the datasets loaded identically?)", rec.Seq, err)
			}
			it.links = append(it.links, l)
		}
		s.applyItem(it)
		return nil
	})
	s.w.replaying = false
	if err != nil {
		return err
	}
	s.recovery.Replayed = n
	// Checkpoints are suppressed while replaying (the unreplayed tail is
	// memory-only there); take the deferred one now if replay ended on an
	// episode boundary. A mid-episode tail keeps the journal instead —
	// checkpointing a half-open episode would break the episode-batching
	// equivalence with an uninterrupted run.
	if s.w.pending == 0 && s.w.sinceCkpt >= s.cfg.CheckpointEvery {
		s.checkpoint()
	}
	return nil
}

// linkCountBuckets bound the link-count histograms. An exploration
// from a correct link admits tens to a couple of hundred links; one
// from a wrong link in a flood admits thousands.
var linkCountBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096}

func (s *Server) registerMetrics() {
	m := &s.metrics
	m.queries = s.reg.Counter("alexd_queries_total", "Federated queries served.")
	m.queryErrors = s.reg.Counter("alexd_query_errors_total", "Queries rejected or failed (parse/eval errors).")
	m.queryTimeouts = s.reg.Counter("alexd_query_timeouts_total", "Queries stopped at their deadline.")
	m.queryAdmissionDrops = s.reg.Counter("alexd_query_admission_drops_total", "Queries refused with 503 because no evaluation slot freed up in time.")
	m.queryRows = s.reg.Counter("alexd_query_rows_total", "Answer rows returned across all queries.")
	m.queryDuration = s.reg.Histogram("alexd_query_duration_seconds", "Query evaluation latency; a query stopped at its deadline counts with the time at which it stopped.", nil)
	s.reg.CounterFunc("alexd_plan_cache_hits_total", "Queries served from a cached plan (plans are keyed by query shape).", func() uint64 {
		hits, _ := s.plans.Stats()
		return hits
	})
	s.reg.CounterFunc("alexd_plan_cache_misses_total", "Queries whose shape had no cached plan, so they were parsed and planned.", func() uint64 {
		_, misses := s.plans.Stats()
		return misses
	})
	s.reg.CounterFunc("alexd_plan_cache_evictions_total", "Compiled plans, keyed by query shape, evicted by the LRU bound.", func() uint64 {
		return s.plans.Evictions()
	})
	s.reg.GaugeFunc("alexd_plan_cache_entries", "Compiled plans currently cached, keyed by query shape.", func() float64 {
		return float64(s.plans.Len())
	})
	s.reg.CounterFunc("alexd_replans_total", "Mid-query re-rankings of the patterns a group had still to run.", func() uint64 {
		return s.base.AdaptiveStats()
	})
	m.feedbackQueued = s.reg.Counter("alexd_feedback_total", "Answer-level feedback items accepted into the queue.")
	m.feedbackThrottled = s.reg.Counter("alexd_feedback_throttled_total", "Feedback items refused with 429 (queue full).")
	m.feedbackLinks = s.reg.Counter("alexd_feedback_links_total", "Link-level feedback items applied by the writer.")
	m.episodes = s.reg.Counter("alexd_episodes_total", "Feedback episodes completed.")
	m.episodeDuration = s.reg.Histogram("alexd_episode_duration_seconds", "Episode duration from first feedback to policy improvement.", nil)
	m.explorations = s.reg.Counter("alexd_explorations_total", "Explorations that searched the feature space around an approved link.")
	m.exploredLinks = s.reg.Counter("alexd_explored_links_total", "Candidate links admitted by explorations.")
	m.rollbacks = s.reg.Counter("alexd_rollbacks_total", "Rollbacks that removed the links one exploration admitted.")
	m.sparedLinks = s.reg.Counter("alexd_rollback_spared_links_total", "Links a rollback kept because they were approved at least as often as rejected.")
	m.explorationLinks = s.reg.Histogram("alexd_exploration_links", "Candidate links one exploration admitted.", linkCountBuckets)
	m.rollbackGroupLinks = s.reg.Histogram("alexd_rollback_group_links", "Links in the group a rollback undid, spared ones included.", linkCountBuckets)
	m.panics = s.reg.Counter("alexd_http_panics_total", "Handler panics recovered.")
	m.journalFsync = s.reg.Histogram("alexd_journal_fsync_seconds", "Feedback journal append+fsync latency.", nil)
	m.journalErrors = s.reg.Counter("alexd_journal_errors_total", "Journal appends that failed (feedback refused with 503).")
	m.checkpoints = s.reg.Counter("alexd_checkpoints_total", "State checkpoints written.")
	m.checkpointErrors = s.reg.Counter("alexd_checkpoint_errors_total", "State checkpoints that failed.")
	m.checkpointDuration = s.reg.Histogram("alexd_checkpoint_seconds", "Checkpoint save+write duration.", nil)
	s.reg.GaugeFunc("alexd_snapshot_load_seconds", "Startup time spent building or cold-starting the triple stores (mmap cold start vs full parse/build).", func() float64 {
		return s.cfg.StoreLoadSeconds
	})
	s.reg.GaugeFunc("alexd_feedback_queue_depth", "Answer-level feedback items waiting for the writer.", func() float64 {
		return float64(len(s.queue))
	})
	s.reg.GaugeFunc("alexd_snapshot_version", "Version of the published snapshot.", func() float64 {
		return float64(s.Snapshot().Version)
	})
	s.reg.GaugeFunc("alexd_snapshot_age_seconds", "Seconds since the current snapshot was published.", func() float64 {
		return time.Since(s.Snapshot().Published).Seconds()
	})
	s.reg.GaugeFunc("alexd_candidate_links", "Candidate links in the published snapshot.", func() float64 {
		return float64(s.Snapshot().Links.Len())
	})
	s.reg.GaugeFunc("alexd_replayed_records", "Journal records replayed by the last startup recovery.", func() float64 {
		return float64(s.Recovery().Replayed)
	})
}

// Snapshot returns the currently published snapshot. The result is
// immutable; it remains valid (and consistent) for as long as the
// caller holds it, even across later publications.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Recovery reports what startup recovery did (zero stats when no data
// directory is configured or nothing was recovered).
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// Handler returns the root HTTP handler (all routes, middleware
// applied).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry, so embedders can add their own
// instruments next to the server's.
func (s *Server) Registry() *Registry { return s.reg }

// publish builds the next immutable snapshot from the previous one:
// the engine's changes since the last publication — on a fleet shard
// with those of the peer manifests accepted since, so reads are always
// full — merged into the previous snapshot's sorted links, from which
// the set and the sameAs index are built. New's first publication
// starts from the empty snapshot, and the engine's first changes are
// its whole set. Writer-goroutine only (plus from New, before the
// writer starts).
func (s *Server) publish() {
	prev := s.snap.Load()
	if prev == nil {
		prev = &Snapshot{}
	}
	added, removed := s.eng.Changes()
	next := &Snapshot{
		Own:       links.Merge(prev.Own, added, removed),
		Episode:   s.eng.Episode(),
		Published: time.Now(),
	}
	next.Sorted = next.Own
	if s.fleet != nil {
		added, removed = s.peerChanges(added, removed)
		next.Sorted = links.Merge(prev.Sorted, added, removed)
	}
	if prev.Fed != nil && len(added) == 0 && len(removed) == 0 {
		next.Links, next.Fed = prev.Links, prev.Fed
	} else {
		next.Links = links.NewSet(next.Sorted...)
		next.Fed = s.base.WithSortedLinks(next.Sorted)
	}
	s.w.version++
	s.w.stale = false
	next.Version = s.w.version
	s.snap.Store(next)
}

// applyItem feeds one answer-level item into the engine, bracketing
// episodes exactly as the paper's loop does. It is the shared apply
// path of live writing and journal replay, and the count check at its
// end is the only place a served episode ends before shutdown:
// identical batching is what makes a recovered run converge to the
// uninterrupted run's state.
func (s *Server) applyItem(it feedbackItem) {
	if s.w.pending == 0 {
		s.eng.BeginEpisode()
		s.w.epStart = time.Now()
	}
	for _, l := range it.links {
		s.eng.Feedback(l, it.positive)
		s.metrics.feedbackLinks.Inc()
		s.w.pending++
	}
	s.w.stale = true
	if it.seq > s.w.applied {
		s.w.applied = it.seq
	}
	if s.w.pending >= s.cfg.EpisodeSize {
		s.finishEpisode()
	}
}

// finishEpisode closes the open episode (if any), publishes a fresh
// snapshot, and checkpoints when the checkpoint interval elapsed.
func (s *Server) finishEpisode() {
	if s.w.pending == 0 {
		return
	}
	st := s.eng.FinishEpisode()
	s.metrics.episodes.Inc()
	s.metrics.explorations.Add(uint64(st.Explorations))
	s.metrics.exploredLinks.Add(uint64(st.Explored))
	s.metrics.rollbacks.Add(uint64(st.Rollbacks))
	s.metrics.sparedLinks.Add(uint64(st.Spared))
	for _, n := range st.Admitted {
		s.metrics.explorationLinks.Observe(float64(n))
	}
	for _, n := range st.RolledBack {
		s.metrics.rollbackGroupLinks.Observe(float64(n))
	}
	s.metrics.episodeDuration.Observe(time.Since(s.w.epStart).Seconds())
	s.w.pending = 0
	s.w.sinceCkpt++
	if !s.w.replaying {
		s.publish()
		// On a fleet shard, every published episode is replicated out.
		s.kickReplicator()
	}
	if s.w.sinceCkpt >= s.cfg.CheckpointEvery {
		s.checkpoint()
	}
}

// checkpoint saves full engine state through the log. A checkpoint
// resets the journal, so it must only run when the journal holds
// nothing beyond s.w.applied: it is suppressed during startup replay
// (the unreplayed tail exists only in memory, and a crash mid-recovery
// would lose it) and skipped while acked-but-unapplied feedback is
// still queued (checked before the engine is encoded, so a skip costs
// no Save, and again under logMu, so no producer can journal a new
// record between the check and the reset). A skipped checkpoint retries
// at the next episode boundary — sinceCkpt stays past the threshold.
// Failures are counted and tolerated: the journal still covers
// everything since the last good checkpoint. Writer-goroutine only
// (or New, strictly before the writer starts).
func (s *Server) checkpoint() {
	if s.w.replaying || s.log == nil {
		return
	}
	if s.w.applied == s.w.ckptSeq {
		return // nothing new since the last checkpoint
	}
	if len(s.queue) > 0 {
		return // the check under logMu would discard the encoding
	}
	start := time.Now()
	var buf bytes.Buffer
	if err := s.eng.Save(&buf); err != nil {
		s.metrics.checkpointErrors.Inc()
		return
	}
	s.logMu.Lock()
	if len(s.queue) > 0 {
		// Producers journal and enqueue under logMu, and only the writer
		// (us) dequeues: a non-empty queue here means journaled, 202-acked
		// records with seq > s.w.applied that would survive the journal
		// reset only in memory. Keep the journal; retry next episode.
		s.logMu.Unlock()
		return
	}
	err := s.log.Checkpoint(s.w.applied, buf.Bytes())
	s.logMu.Unlock()
	if err != nil {
		s.metrics.checkpointErrors.Inc()
		return
	}
	s.metrics.checkpoints.Inc()
	s.metrics.checkpointDuration.Observe(time.Since(start).Seconds())
	s.w.ckptSeq = s.w.applied
	s.w.sinceCkpt = 0
}

// writer is the single goroutine that owns the engine: it applies
// queued feedback, brackets it into episodes, publishes snapshots, and
// checkpoints.
func (s *Server) writer() {
	defer close(s.done)
	flush := time.NewTicker(s.cfg.FlushInterval)
	defer flush.Stop()

	for {
		select {
		case it := <-s.queue:
			s.applyItem(it)
		case <-flush.C:
			// Publish the open episode's candidates; the episode stays
			// open until it reaches EpisodeSize items.
			if s.w.stale {
				s.publish()
				s.kickReplicator()
			}
		case <-s.repub:
			// A peer manifest landed (fleet only; the channel is nil and
			// never fires standalone): fold it into a fresh snapshot.
			// Publication stays writer-only.
			s.publish()
		case <-s.die:
			return // simulated crash: no drain, no checkpoint
		case <-s.stop:
			// Drain everything already acknowledged to clients, then
			// finish the open episode so no accepted feedback is lost,
			// and leave a final checkpoint so restart needs no replay.
			for {
				select {
				case it := <-s.queue:
					s.applyItem(it)
				default:
					s.finishEpisode()
					s.checkpoint()
					return
				}
			}
		}
	}
}

// accept makes an answer-level feedback item durable (journal append +
// fsync) and hands it to the writer, without blocking. The returned
// status is http.StatusAccepted on success, 429 when the queue is full,
// or 503 when the journal cannot be written (the item was NOT accepted
// and the client must retry).
func (s *Server) accept(it feedbackItem, wirePayload []byte) (int, error) {
	if s.log == nil {
		if s.enqueue(it) {
			return http.StatusAccepted, nil
		}
		return http.StatusTooManyRequests, fmt.Errorf("feedback queue full, retry later")
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if len(s.queue) == cap(s.queue) {
		s.metrics.feedbackThrottled.Inc()
		return http.StatusTooManyRequests, fmt.Errorf("feedback queue full, retry later")
	}
	start := time.Now()
	seq, err := s.log.Append(wirePayload)
	s.metrics.journalFsync.Observe(time.Since(start).Seconds())
	if err != nil {
		s.metrics.journalErrors.Inc()
		return http.StatusServiceUnavailable, fmt.Errorf("feedback not durable: %v", err)
	}
	it.seq = seq
	// Guaranteed to fit: producers hold logMu and only the writer takes
	// items out, so the capacity check above still stands.
	s.queue <- it
	s.metrics.feedbackQueued.Inc()
	return http.StatusAccepted, nil
}

// enqueue offers an answer-level feedback item to the writer without
// blocking or journaling. ok=false means the queue is full and the item
// was NOT accepted (the HTTP layer turns that into 429 + Retry-After).
func (s *Server) enqueue(it feedbackItem) bool {
	select {
	case s.queue <- it:
		s.metrics.feedbackQueued.Inc()
		return true
	default:
		s.metrics.feedbackThrottled.Inc()
		return false
	}
}

// Close shuts the writer down gracefully: queued feedback is drained,
// the open episode finished, a final snapshot published and (with a
// data directory) a final checkpoint written, so the next start needs
// no journal replay. It returns an error if the writer does not drain
// within DrainTimeout. Close is idempotent; after it returns, feedback
// is no longer processed (the HTTP handlers keep serving reads from the
// last snapshot).
func (s *Server) Close() error {
	// /healthz reports "closing" from here on, so a router's next poll
	// takes the shard out of rotation; its data path already has, once
	// the listener in front of the shard refuses connections.
	s.closing.Do(func() { close(s.stop) })
	if s.repCancel != nil {
		s.repCancel()
	}
	select {
	case <-s.done:
	case <-time.After(s.cfg.DrainTimeout):
		return fmt.Errorf("server: writer did not drain within %s", s.cfg.DrainTimeout)
	}
	if s.repDone != nil {
		<-s.repDone
	}
	if s.log != nil {
		s.logMu.Lock()
		defer s.logMu.Unlock()
		return s.log.Close()
	}
	return nil
}

// Abort is the crash simulation of the chaos and failover tests: the
// writer (and, on a fleet shard, the replicator) exits at once — no
// drain, no final episode, no checkpoint. The journal stays on disk
// exactly as a real crash would leave it, acknowledged items still
// queued included, so a later New over the same data directory must
// recover every one.
func (s *Server) Abort() {
	s.aborting.Do(func() { close(s.die) })
	if s.repCancel != nil {
		s.repCancel()
	}
	<-s.done
	if s.repDone != nil {
		<-s.repDone
	}
}
