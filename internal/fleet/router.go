// Package fleet is the router in front of a sharded alexd fleet
// (ISSUE 6; the multi-machine reading of paper §6.2's independent
// partitions).
//
// N shards each own a contiguous range of the entity-hash space
// (cluster.FleetRanges) and replicate their link snapshots to each
// other, so EVERY shard serves full reads. The router is stateless on
// top of that:
//
//   - /feedback is consistent-hash routed: the links of one request are
//     grouped by owning shard (cluster.OwnerOf on the E1 IRI) and each
//     group goes to its owner, which journals and fsyncs before acking
//     — the fleet ack is as durable as the single-node one. Delivery
//     is at-least-once per group; ALEX feedback tolerates duplicates.
//   - /query goes to ONE routable shard, picked round-robin, and the
//     shard's status, Content-Type and body are relayed as received, the
//     client's request body as sent: the answer is one replica's
//     snapshot, byte for byte what that alexd would have told the
//     client directly. A shard's 4xx is such an answer. The read path
//     has one failover rule, the one /links keeps too: a shard is asked
//     once (relay.go), and a transport error or a 5xx marks it down and
//     sends the query to the next routable shard in ID order, once. A
//     shard that hangs is waited for until the query's deadline. The
//     router answers in its own words only when it has no shard's
//     answer to relay: 503 with every shard named in
//     X-Alex-Fleet-Degraded when none is routable, 502 when those it
//     asked both failed, 504 at the deadline.
//   - Failover: every request the router sends a shard is one
//     attempt, and a failed request or /healthz probe marks the shard
//     down. Each shard has its own probe loop, so a hung shard delays
//     no other shard's verdict, and the first good probe makes a down
//     shard routable again. A down shard is routed around — reads
//     survive any N-1 failures because replicas are full; writes for
//     its range are refused with 503 + Retry-After (the owner is the
//     only durable home for its links; rerouting them would fork
//     ownership). The client retries; the router does not.
//
// The router holds no link state and no journal: it can be restarted
// or replicated freely, and every durability promise is exactly one
// shard's fsync-before-ack.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/cluster"
	"alex/internal/federation"
	"alex/internal/server"
)

// Config tunes the router.
type Config struct {
	// Shards lists the shard addresses in shard-ID order; the fleet
	// size and hash ranges are derived from its length.
	Shards []string
	// HealthInterval is the /healthz polling period. 0 means 1s.
	HealthInterval time.Duration
	// QueryTimeout caps one routed query, failover included; requests
	// may lower it via timeout_ms. 0 means 10s.
	QueryTimeout time.Duration
	// Breaker is ignored: the router has no circuit breakers.
	//
	// Deprecated: nothing reads it. It remains until the end-to-end
	// benchmark stops setting it.
	Breaker federation.BreakerConfig
	// Transport, when non-nil, carries every request the router sends a
	// shard — the chaos tests inject a faultnet.Transport here. Nil means
	// one transport of the router's own.
	Transport http.RoundTripper
}

const (
	defaultHealthInterval = time.Second
	defaultQueryTimeout   = 10 * time.Second
	// healthProbeTimeout bounds one /healthz probe.
	healthProbeTimeout = 2 * time.Second
)

// shard is the router's view of one fleet member.
type shard struct {
	id     int
	client *server.Client
	// query is the template of every /query relayed to the shard
	// (relay.go).
	query *http.Request
	// routable is the last verdict on the shard — its probe loop's, or
	// a failed request's — read lock-free by the data path. health
	// caches the last successful /healthz response.
	routable atomic.Bool
	health   atomic.Pointer[server.HealthResponse]
}

// Router routes each query to one replica and hash-routes feedback to
// its owners across the fleet.
type Router struct {
	cfg    Config
	ranges []cluster.HashRange
	shards []*shard
	rr     atomic.Uint64 // round-robin cursor of the /query shard pick
	// transport carries every request to a shard: Config.Transport, or
	// one of the router's own that Close releases.
	transport http.RoundTripper

	mux http.Handler
	reg *server.Registry
	// baseCtx scopes the probe loops and their probes: Close cancels
	// it, so shutdown never waits out a probe timeout, then waits for
	// loops.
	baseCtx context.Context
	cancel  context.CancelFunc
	loops   sync.WaitGroup

	metrics routerMetrics
}

type routerMetrics struct {
	queries        *server.Counter
	queryErrors    *server.Counter
	queryFanouts   *server.Histogram
	fleetDegraded  *server.Counter
	feedback       *server.Counter
	feedbackErrors *server.Counter
	feedbackSplits *server.Histogram
	healthPolls    *server.Counter
	healthFailures *server.Counter
	panics         *server.Counter
}

// New builds a router over the shard address list and starts one probe
// loop per shard. New returns once every shard's first probe has
// answered or timed out, so the router never starts blind: shards that
// are already up are routable before New returns.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) < 1 {
		return nil, fmt.Errorf("fleet: router needs at least one shard address")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = defaultHealthInterval
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = defaultQueryTimeout
	}
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport.(*http.Transport).Clone()
	}
	var shards []*shard
	for id, addr := range cfg.Shards {
		c := server.NewClient(addr)
		c.SetTransport(transport)
		query, err := newQueryTemplate(c.Addr())
		if err != nil {
			return nil, err
		}
		shards = append(shards, &shard{id: id, client: c, query: query})
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	r := &Router{
		cfg:       cfg,
		ranges:    cluster.FleetRanges(len(cfg.Shards)),
		shards:    shards,
		transport: transport,
		baseCtx:   baseCtx,
		cancel:    cancel,
		reg:       server.NewRegistry(),
	}
	r.registerMetrics()
	r.mux = r.routes()
	var first sync.WaitGroup
	for _, sh := range shards {
		first.Add(1)
		r.loops.Add(1)
		go r.healthLoop(sh, &first)
	}
	first.Wait()
	return r, nil
}

func (r *Router) registerMetrics() {
	m := &r.metrics
	m.queries = r.reg.Counter("alexrouter_queries_total", "Queries answered by a shard and relayed.")
	m.queryErrors = r.reg.Counter("alexrouter_query_errors_total", "Queries no shard could be asked or none answered.")
	m.queryFanouts = r.reg.Histogram("alexrouter_query_fanout", "Shards asked per query: 1, or 2 when the first failed and the next routable one was asked.", []float64{1, 2})
	m.fleetDegraded = r.reg.Counter("alexrouter_fleet_degraded_total", "Queries refused with 503 because no shard was routable.")
	m.feedback = r.reg.Counter("alexrouter_feedback_total", "Feedback requests routed to owning shards.")
	m.feedbackErrors = r.reg.Counter("alexrouter_feedback_errors_total", "Feedback requests refused (owner down, backpressure, bad links).")
	m.feedbackSplits = r.reg.Histogram("alexrouter_feedback_split", "Owner groups per feedback request.", []float64{1, 2, 4, 8})
	m.healthPolls = r.reg.Counter("alexrouter_health_polls_total", "Shard health probes issued.")
	m.healthFailures = r.reg.Counter("alexrouter_health_failures_total", "Shard health probes that failed.")
	m.panics = r.reg.Counter("alexrouter_http_panics_total", "Handler panics recovered.")
	r.reg.GaugeFunc("alexrouter_shards", "Fleet size.", func() float64 {
		return float64(len(r.shards))
	})
	r.reg.GaugeFunc("alexrouter_routable_shards", "Shards currently considered routable.", func() float64 {
		n := 0
		for _, sh := range r.shards {
			if sh.routable.Load() {
				n++
			}
		}
		return float64(n)
	})
	for _, sh := range r.shards {
		sh := sh
		r.reg.LabeledGaugeFunc("alexrouter_shard_routable",
			fmt.Sprintf("shard=\"%d\"", sh.id),
			"1 when the shard is routable.",
			func() float64 {
				if sh.routable.Load() {
					return 1
				}
				return 0
			})
	}
}

// healthLoop is sh's probe loop: probe, then wait HealthInterval,
// until Close cancels baseCtx. first is done after the first probe.
func (r *Router) healthLoop(sh *shard, first *sync.WaitGroup) {
	defer r.loops.Done()
	r.probeShard(sh)
	first.Done()
	wait := time.NewTimer(r.cfg.HealthInterval)
	defer wait.Stop()
	for {
		select {
		case <-r.baseCtx.Done():
			return
		case <-wait.C:
			r.probeShard(sh)
			wait.Reset(r.cfg.HealthInterval)
		}
	}
}

// probeShard issues one /healthz probe under baseCtx, so Close aborts
// it, and applies the verdict: a good answer makes the shard routable,
// anything else takes it down.
func (r *Router) probeShard(sh *shard) {
	r.metrics.healthPolls.Inc()
	ctx, cancel := context.WithTimeout(r.baseCtx, healthProbeTimeout)
	h, err := sh.client.HealthzContext(ctx)
	cancel()
	ok := err == nil && h.Status == "ok"
	sh.routable.Store(ok)
	if ok {
		sh.health.Store(h)
	} else {
		r.metrics.healthFailures.Inc()
	}
}

// markDown records a data-path failure: the shard is unroutable until
// its probe loop's next good answer.
func (r *Router) markDown(sh *shard) {
	sh.routable.Store(false)
}

// routableShards appends the currently routable shards to buf, in ID
// order.
func (r *Router) routableShards(buf []*shard) []*shard {
	for _, sh := range r.shards {
		if sh.routable.Load() {
			buf = append(buf, sh)
		}
	}
	return buf
}

// pickShard returns the shard the next query goes to: the routable
// shards in turn, nil when there is none.
func (r *Router) pickShard() *shard {
	var buf [8]*shard
	avail := r.routableShards(buf[:0])
	if len(avail) == 0 {
		return nil
	}
	return avail[int((r.rr.Add(1)-1)%uint64(len(avail)))]
}

// Handler returns the router's root HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// Registry exposes the router's metrics registry.
func (r *Router) Registry() *server.Registry { return r.reg }

// Close stops the probe loops, aborting their in-flight probes, and
// waits for them. In-flight client requests finish; the router holds
// no state to drain.
func (r *Router) Close() error {
	r.cancel()
	r.loops.Wait()
	if t, ok := r.transport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
	return nil
}

func (r *Router) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", r.handleQuery)
	mux.HandleFunc("/feedback", r.handleFeedback)
	mux.HandleFunc("/links", r.handleLinks)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/metrics", r.handleMetrics)
	return r.recoverMiddleware(mux)
}

func (r *Router) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				r.metrics.panics.Inc()
				writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, req)
	})
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	body, status, err := server.ReadQueryBody(w, req, nil)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	// The body goes to the shard as sent, and the shard validates it; the
	// router reads only the deadline the client asked for. A body that
	// does not decode gets the default one and the shard's 400.
	var qr struct {
		TimeoutMillis int `json:"timeout_ms"`
	}
	_ = json.Unmarshal(body, &qr)
	timeout := r.cfg.QueryTimeout
	if qr.TimeoutMillis > 0 {
		if t := time.Duration(qr.TimeoutMillis) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(req.Context(), timeout)
	defer cancel()

	sh := r.pickShard()
	if sh == nil {
		// All shards down: fail fast with the full degraded set rather
		// than burn the query timeout — the client can tell "fleet is
		// down, retry later" from "query is slow".
		r.metrics.queryErrors.Inc()
		r.metrics.fleetDegraded.Inc()
		all := make([]string, 0, len(r.shards))
		for id := range r.shards {
			all = append(all, fmt.Sprintf("shard-%d", id))
		}
		w.Header().Set("X-Alex-Fleet-Degraded", strings.Join(all, ","))
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no routable shard"})
		return
	}
	reply, err := r.subQuery(ctx, sh, body)
	if err != nil {
		r.metrics.queryErrors.Inc()
		if ctx.Err() != nil {
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "query deadline exceeded"})
			return
		}
		writeJSON(w, http.StatusBadGateway, errorResponse{Error: fmt.Sprintf("no shard answered: %v", err)})
		return
	}
	r.metrics.queries.Inc()
	if v := reply.header.Get("Content-Type"); v != "" {
		w.Header().Set("Content-Type", v)
	}
	w.WriteHeader(reply.status)
	w.Write(reply.body) //nolint:errcheck // client gone; nothing to do
}

// subQuery asks sh on the caller's goroutine and returns its reply when
// it is an answer: any status below 500, a 4xx included (the shard judged
// the request, which says nothing about the shard). A transport error or
// a 5xx marks sh down, and the query is asked of the next routable shard
// in ID order once — replicas are full, so its answer is the full answer.
// A shard that answers nothing is waited for until ctx's deadline.
func (r *Router) subQuery(ctx context.Context, sh *shard, body []byte) (shardReply, error) {
	reply, err := r.ask(ctx, sh, body)
	asked := 1
	if err != nil && ctx.Err() == nil {
		r.markDown(sh)
		if next := r.nextRoutable(sh); next != nil {
			asked = 2
			var nextErr error
			if reply, nextErr = r.ask(ctx, next, body); nextErr == nil {
				err = nil
			} else if ctx.Err() == nil {
				r.markDown(next)
			}
		}
	}
	r.metrics.queryFanouts.Observe(float64(asked))
	return reply, err
}

// nextRoutable returns the next routable shard after sh in ID order, nil
// when there is none.
func (r *Router) nextRoutable(sh *shard) *shard {
	n := len(r.shards)
	for i := 1; i < n; i++ {
		if next := r.shards[(sh.id+i)%n]; next.routable.Load() {
			return next
		}
	}
	return nil
}

func (r *Router) handleFeedback(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	// Bounded as on the shard: a body no owner would take is refused
	// before any owner is asked.
	body, status, err := server.ReadQueryBody(w, req, nil)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	var fr server.FeedbackRequest
	if err := json.Unmarshal(body, &fr); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(fr.Links) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no links in feedback"})
		return
	}
	// Group the links by owning shard. One answer row can cross links
	// owned by different shards; each group must reach ITS owner — the
	// only node whose journal makes the ack durable for those links.
	groups := make(map[int][]server.LinkJSON)
	for _, lj := range fr.Links {
		owner := cluster.OwnerOf(r.ranges, lj.E1)
		groups[owner] = append(groups[owner], lj)
	}
	r.metrics.feedbackSplits.Observe(float64(len(groups)))
	// All owners must be routable up front: nothing is sent when an owner
	// is known to be down, so the common refusal delivers no slice at all.
	for owner := range groups {
		if !r.shards[owner].routable.Load() {
			r.metrics.feedbackErrors.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error: fmt.Sprintf("shard %d (owner of %d of the links) is not routable", owner, len(groups[owner])),
			})
			return
		}
	}

	owners := make([]int, 0, len(groups))
	for owner := range groups {
		owners = append(owners, owner)
	}
	sort.Ints(owners)
	// Every owner gets its slice as a plain /feedback, in parallel. A
	// shard's 202 means its slice is journaled, fsync'd and queued for its
	// writer, and nothing else has to happen for it to apply: a link has
	// one owner and a verdict is per link (§3.2), so the slices are
	// independent. The client sees 202 only when every owner said 202.
	// Any other outcome is the worst status, and promises nothing about
	// the slices that did land — they are applied; the client retries the
	// whole batch and delivery is at-least-once, as for every /feedback.
	statuses := make([]int, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, owner := range owners {
		wg.Add(1)
		go func(i, owner int) {
			defer wg.Done()
			statuses[i], errs[i] = r.shards[owner].client.FeedbackResult(req.Context(), groups[owner], fr.Approve)
		}(i, owner)
	}
	wg.Wait()

	worst := http.StatusAccepted
	outcomes := make([]string, len(owners))
	for i, owner := range owners {
		status, err := statuses[i], errs[i]
		if err != nil && status == 0 {
			// Transport failure: the owner may or may not have journaled
			// the group. Surface a retryable 503 and take the owner down.
			r.markDown(r.shards[owner])
			status = http.StatusServiceUnavailable
		}
		if status > worst {
			worst = status
		}
		switch {
		case status == http.StatusAccepted:
			outcomes[i] = fmt.Sprintf("shard %d accepted %d link(s)", owner, len(groups[owner]))
		case err != nil:
			outcomes[i] = fmt.Sprintf("shard %d refused %d link(s): %v", owner, len(groups[owner]), err)
		default:
			outcomes[i] = fmt.Sprintf("shard %d refused %d link(s): HTTP %d", owner, len(groups[owner]), status)
		}
	}
	if worst != http.StatusAccepted {
		r.metrics.feedbackErrors.Inc()
		if worst == http.StatusTooManyRequests || worst >= 500 {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, worst, errorResponse{Error: strings.Join(outcomes, "; ")})
		return
	}
	r.metrics.feedback.Inc()
	writeJSON(w, http.StatusAccepted, server.FeedbackResponse{Queued: true, Links: len(fr.Links)})
}

// handleLinks proxies the full link set from the freshest routable
// shard (every replica serves full reads; freshest = highest engine
// episode seen by the probe loops, so the answer lags replication the
// least).
func (r *Router) handleLinks(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	avail := r.routableShards(nil)
	sort.SliceStable(avail, func(i, j int) bool {
		hi, hj := avail[i].health.Load(), avail[j].health.Load()
		ei, ej := -1, -1
		if hi != nil {
			ei = hi.Episode
		}
		if hj != nil {
			ej = hj.Episode
		}
		return ei > ej
	})
	for _, sh := range avail {
		ls, err := sh.client.LinksContext(req.Context())
		if err != nil {
			r.markDown(sh)
			continue
		}
		writeJSON(w, http.StatusOK, ls)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no routable shard"})
}

// ShardStatus is the router's view of one shard, for /healthz.
type ShardStatus struct {
	ID       int               `json:"id"`
	Addr     string            `json:"addr"`
	Range    cluster.HashRange `json:"range"`
	Routable bool              `json:"routable"`
	// Episode/CandidateLinks/SnapshotVersion echo the last successful
	// health probe (zero before the first one).
	Episode         int    `json:"episode"`
	CandidateLinks  int    `json:"candidate_links"`
	SnapshotVersion uint64 `json:"snapshot_version"`
}

// RouterHealth reports the fleet as the router sees it. Status is
// "ok" (all shards routable), "degraded" (some), or "down" (none).
type RouterHealth struct {
	Status   string        `json:"status"`
	Shards   []ShardStatus `json:"shards"`
	Routable int           `json:"routable"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	out := RouterHealth{Shards: make([]ShardStatus, 0, len(r.shards))}
	for _, sh := range r.shards {
		st := ShardStatus{
			ID:       sh.id,
			Addr:     sh.client.Addr(),
			Range:    r.ranges[sh.id],
			Routable: sh.routable.Load(),
		}
		if h := sh.health.Load(); h != nil {
			st.Episode = h.Episode
			st.CandidateLinks = h.CandidateLinks
			st.SnapshotVersion = h.SnapshotVersion
		}
		if st.Routable {
			out.Routable++
		}
		out.Shards = append(out.Shards, st)
	}
	switch out.Routable {
	case len(r.shards):
		out.Status = "ok"
	case 0:
		out.Status = "down"
	default:
		out.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.reg.WritePrometheus(w)
}
