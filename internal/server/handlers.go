// HTTP surface of alexd: JSON wire types, the four endpoints, and the
// recovery/metrics middleware. The wire types are what every endpoint
// but one encodes and what clients decode; a /query answer is written
// from dictionary IDs by wire.go, which QueryResponse only describes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"alex/internal/cluster"
	"alex/internal/links"
	"alex/internal/rdf"
)

// TermJSON is an RDF term on the wire.
type TermJSON struct {
	// Kind is "iri", "literal" or "blank".
	Kind     string `json:"kind"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"lang,omitempty"`
}

// LinkJSON is a sameAs link as entity IRIs.
type LinkJSON struct {
	E1 string `json:"e1"`
	E2 string `json:"e2"`
}

// RowJSON is one federated answer row: bindings plus the links it used.
// Echo Links back in a FeedbackRequest to approve or reject the row.
type RowJSON struct {
	Binding map[string]TermJSON `json:"binding"`
	Links   []LinkJSON          `json:"links,omitempty"`
}

// QueryRequest asks for a federated SPARQL evaluation.
type QueryRequest struct {
	Query string `json:"query"`
	// TimeoutMillis optionally lowers the server's query timeout for
	// this request; it can never raise it.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
}

// QueryResponse carries the result set and the snapshot it was computed
// against.
type QueryResponse struct {
	Vars            []string  `json:"vars,omitempty"`
	Rows            []RowJSON `json:"rows"`
	Ask             *bool     `json:"ask,omitempty"`
	SnapshotVersion uint64    `json:"snapshot_version"`
	// DegradedSources is never set: the federated sources are local
	// stores, and an answer is never partial.
	//
	// Deprecated: nothing writes it. It remains until the end-to-end
	// benchmark stops reading it.
	DegradedSources []string `json:"degraded_sources,omitempty"`
}

// FeedbackRequest reports an answer-level verdict: the links of the
// answer row (as returned by /query) with approve=true or false.
type FeedbackRequest struct {
	Approve bool       `json:"approve"`
	Links   []LinkJSON `json:"links"`
}

// FeedbackResponse acknowledges queued feedback.
type FeedbackResponse struct {
	Queued bool `json:"queued"`
	// Links is the number of link-level feedback items the request
	// expands to.
	Links int `json:"links"`
}

// LinksResponse is the published candidate link set.
type LinksResponse struct {
	SnapshotVersion uint64     `json:"snapshot_version"`
	Episode         int        `json:"episode"`
	Count           int        `json:"count"`
	Links           []LinkJSON `json:"links"`
}

// JournalHealth reports the durability layer's state.
type JournalHealth struct {
	Enabled bool `json:"enabled"`
	// CheckpointSeq is the journal sequence the checkpoint loaded at
	// startup covered; Replayed is how many journal records were
	// applied on top of it.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	Replayed      int    `json:"replayed"`
}

// PeerHealth reports the newest replicated manifest a shard holds from
// one of its peers.
type PeerHealth struct {
	ShardID int `json:"shard_id"`
	Episode int `json:"episode"`
	Links   int `json:"links"`
}

// ShardHealth reports a fleet shard's identity: which slice of the
// hash space it owns, how far its own exploration has progressed, and
// what it has replicated in from each peer. The router's health loop
// reads it; so do humans debugging a fleet.
type ShardHealth struct {
	ID     int               `json:"id"`
	Shards int               `json:"shards"`
	Range  cluster.HashRange `json:"range"`
	// RangeText is Range rendered for humans ("[0x…, 0x…)").
	RangeText string `json:"range_text"`
	// OwnEpisode is the local engine's episode — the manifest episode
	// peers will see from this shard.
	OwnEpisode int `json:"own_episode"`
	// OwnLinks counts the shard's own candidate partition (the served
	// total including peers is candidate_links at the top level).
	OwnLinks int          `json:"own_links"`
	Peers    []PeerHealth `json:"peers,omitempty"`
}

// StoreSourceHealth reports one disk-backed source's size.
type StoreSourceHealth struct {
	Name    string `json:"name"`
	Triples int    `json:"triples"`
}

// StoreHealth surfaces where the triple index lives. Backend is "mem"
// (each source an rdf.Graph, its index image on the heap) or "disk"
// (one mmap'd immutable segment file per source holding the same
// image); Sources is only set for "disk".
type StoreHealth struct {
	Backend string              `json:"backend"`
	Sources []StoreSourceHealth `json:"sources,omitempty"`
}

// HealthResponse reports liveness, writer progress, the durability
// layer and the store backend. Role is "standalone" or "shard"; Shard
// is set only for fleet members.
type HealthResponse struct {
	Status          string        `json:"status"`
	Role            string        `json:"role"`
	SnapshotVersion uint64        `json:"snapshot_version"`
	SnapshotAgeSecs float64       `json:"snapshot_age_seconds"`
	Episode         int           `json:"episode"`
	CandidateLinks  int           `json:"candidate_links"`
	QueueDepth      int           `json:"queue_depth"`
	QueueCapacity   int           `json:"queue_capacity"`
	Journal         JournalHealth `json:"journal"`
	Store           StoreHealth   `json:"store"`
	Shard           *ShardHealth  `json:"shard,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/feedback", s.handleFeedback)
	mux.HandleFunc("/links", s.handleLinks)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/replica/snapshot", s.handleReplicaSnapshot)
	mux.HandleFunc("/replica/push", s.handleReplicaPush)
	return s.recoverMiddleware(mux)
}

// recoverMiddleware turns handler panics into 500s instead of killing
// the connection (and, pre-Go1.8-style, the process for ServeMux-level
// panics in tests using the handler directly).
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Inc()
				writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	// The body is read whole into the buffer the response is later
	// written from, and must be one JSON value: trailing bytes are a 400.
	wb := wireBufs.Get().(*wireBuf)
	defer putWireBuf(wb)
	var status int
	var err error
	if wb.b, status, err = ReadQueryBody(w, r, wb.b); err != nil {
		writeJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	var req QueryRequest
	if err := json.Unmarshal(wb.b, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty query"})
		return
	}
	timeout := s.cfg.QueryTimeout
	if req.TimeoutMillis > 0 {
		if t := time.Duration(req.TimeoutMillis) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	// The evaluator stops at the request's own context or at this
	// deadline, so a query that finds a slot makes no timer context.
	deadline := time.Now().Add(timeout)
	ctx := r.Context()

	// Admission: with MaxConcurrentQueries set, wait for an evaluation
	// slot within the request's own deadline; an overloaded server then
	// backpressures with 503 + Retry-After instead of piling up work
	// and timing out everything at once.
	if s.querySem != nil {
		if !s.admit(ctx, deadline) {
			s.metrics.queryAdmissionDrops.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "query concurrency limit reached, retry later"})
			return
		}
		defer func() { <-s.querySem }()
	}

	// Lock-free read path: load the current snapshot once and evaluate
	// entirely against it, on this goroutine, in the buffer's scratch:
	// the answer lives as long as the bytes written from it. Concurrent
	// episodes publish new snapshots but never touch this one. The
	// evaluator stops itself at the deadline, so the slot taken above
	// covers all the work.
	snap := s.Snapshot()
	start := time.Now()
	ans, err := snap.Fed.EvaluateIn(ctx, deadline, req.Query, &wb.sc)
	s.metrics.queryDuration.Observe(time.Since(start).Seconds())
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			s.metrics.queryTimeouts.Inc()
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "query deadline exceeded"})
			return
		}
		s.metrics.queryErrors.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.metrics.queries.Inc()
	s.metrics.queryRows.Add(uint64(ans.Len()))

	h := w.Header()
	wb.b = wb.b[:0]
	s.appendQueryResponse(wb, ans, snap.Version)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(wb.b)))
	w.WriteHeader(http.StatusOK)
	w.Write(wb.b) //nolint:errcheck // client gone; nothing to do
}

// admit takes a /query evaluation slot, waiting for one until ctx is
// done or deadline passes; only a wait makes a timer.
func (s *Server) admit(ctx context.Context, deadline time.Time) bool {
	select {
	case s.querySem <- struct{}{}:
		return true
	default:
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	select {
	case s.querySem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	// Bounded like a /query body: the journal takes no record it could
	// not read back.
	body, status, err := ReadQueryBody(w, r, nil)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	var req FeedbackRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(req.Links) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no links in feedback"})
		return
	}
	item := feedbackItem{positive: req.Approve, links: make([]links.Link, 0, len(req.Links))}
	for _, lj := range req.Links {
		// A fleet shard only accepts links it owns. Accepting a misrouted
		// link would fork ownership: this shard would journal and explore
		// a link the true owner never sees, and replication (keyed by
		// owner) would silently drop it. 400, not 503 — the router must
		// fix its routing, not retry.
		if s.fleet != nil {
			if owner := cluster.OwnerOf(s.ranges, lj.E1); owner != s.fleet.ShardID {
				writeJSON(w, http.StatusBadRequest, errorResponse{
					Error: fmt.Sprintf("link %q belongs to shard %d, this is shard %d", lj.E1, owner, s.fleet.ShardID),
				})
				return
			}
		}
		l, err := s.resolveLink(lj)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		item.links = append(item.links, l)
	}
	// Canonical wire payload for the journal: what replay will decode.
	payload, err := json.Marshal(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	status, err = s.accept(item, payload)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, FeedbackResponse{Queued: true, Links: len(item.links)})
}

func (s *Server) resolveLink(lj LinkJSON) (links.Link, error) {
	e1, ok := s.dict.Lookup(rdf.IRI(lj.E1))
	if !ok {
		return links.Link{}, fmt.Errorf("unknown entity %q", lj.E1)
	}
	e2, ok := s.dict.Lookup(rdf.IRI(lj.E2))
	if !ok {
		return links.Link{}, fmt.Errorf("unknown entity %q", lj.E2)
	}
	return links.Link{E1: e1, E2: e2}, nil
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	snap := s.Snapshot()
	if r.URL.Query().Get("format") == "ntriples" {
		w.Header().Set("Content-Type", "application/n-triples")
		sameAs := rdf.IRI(rdf.OWLSameAs)
		for _, l := range snap.Sorted {
			fmt.Fprintf(w, "%s\n", rdf.Triple{S: s.dict.Term(l.E1), P: sameAs, O: s.dict.Term(l.E2)})
		}
		return
	}
	out := LinksResponse{
		SnapshotVersion: snap.Version,
		Episode:         snap.Episode,
		Count:           snap.Links.Len(),
		Links:           make([]LinkJSON, 0, snap.Links.Len()),
	}
	for _, l := range snap.Sorted {
		out.Links = append(out.Links, LinkJSON{E1: s.dict.Term(l.E1).Value, E2: s.dict.Term(l.E2).Value})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	// A draining server still answers reads but must not be offered new
	// writes; "closing" takes it out of a router's rotation at the next
	// poll.
	status := "ok"
	select {
	case <-s.stop:
		status = "closing"
	default:
	}
	out := HealthResponse{
		Status:          status,
		Role:            "standalone",
		SnapshotVersion: snap.Version,
		SnapshotAgeSecs: time.Since(snap.Published).Seconds(),
		Episode:         snap.Episode,
		CandidateLinks:  snap.Links.Len(),
		QueueDepth:      len(s.queue),
		QueueCapacity:   cap(s.queue),
		Journal: JournalHealth{
			Enabled:       s.log != nil,
			CheckpointSeq: s.recovery.CheckpointSeq,
			Replayed:      s.recovery.Replayed,
		},
		Store: StoreHealth{Backend: "mem"},
	}
	if st := s.cfg.Stores; st != nil {
		out.Store.Backend = "disk"
		for _, src := range st.Sources() {
			out.Store.Sources = append(out.Store.Sources, StoreSourceHealth{Name: src.Name(), Triples: src.Size()})
		}
	}
	if s.fleet != nil {
		rng := s.ranges[s.fleet.ShardID]
		out.Role = "shard"
		out.Shard = &ShardHealth{
			ID:         s.fleet.ShardID,
			Shards:     s.fleet.Shards,
			Range:      rng,
			RangeText:  rng.String(),
			OwnEpisode: snap.Episode,
			OwnLinks:   len(snap.Own),
			Peers:      s.peerHealth(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}
