package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"syscall"
	"time"

	"alex/internal/server"
)

// client is the one closed-loop client: one keep-alive connection, the
// next request only after the previous answer was read.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and returns the response; its body slice is valid
// until the next call.
func (c *client) post(path string, body []byte) (status int, hdr http.Header, respBody []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), err
}

// runner drives one deployment with one op list. Requests are timed in
// send and their answers checked in check, which a measured segment
// calls only after its clock has stopped.
type runner struct {
	w      workload
	d      *deployment
	c      *client
	ops    []op
	cursor int
	tr     *tracer // non-nil while a traced segment records spans

	// Answers of the segment under way, and the bytes of their bodies.
	replies []reply
	arena   []byte

	// expected maps a query text to its answer digest on the static
	// workloads. On feedback workloads the link set moves: every snapshot
	// the server publishes is noted as it appears (unindexed) and indexed
	// for the oracle before the next check (versions).
	expected  map[string]digest
	versions  map[uint64]linkIndex
	unindexed []*server.Snapshot
	noted     uint64 // version of the last snapshot noted

	attempted, failed int
	firstFailure      string
	sentLinks         int // link-level feedback items acked
	// A restarted server counts applied items from its replay on:
	// sentLinks and its alexd_feedback_links_total when it took over.
	sentAtStart    int
	appliedAtStart float64
	degraded       int // answers the router flagged X-Alex-Fleet-Degraded

	// Exact counts over the prelude's queries.
	preQueries, preRows, preLinks, preBytes int
	preCandidates                           int // candidate links after the feedback prelude's last episode
	preDigest                               digest
}

func (r *runner) failf(o *op, format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf("%s op: ", shapeNames[o.shape]) + fmt.Sprintf(format, args...)
	}
}

// noteSnapshot keeps the primary's current snapshot if its version is
// new. Called after every op: an episode needs 100 feedback ops, so no
// version can be published and replaced between two calls.
func (r *runner) noteSnapshot() {
	if snap := r.d.primary().srv.Snapshot(); snap.Version != r.noted {
		r.unindexed = append(r.unindexed, snap)
		r.noted = snap.Version
	}
}

// resetSnapshots forgets every version: a restarted server numbers its
// snapshots from the start again.
func (r *runner) resetSnapshots() {
	snap := r.d.primary().srv.Snapshot()
	r.versions, r.unindexed, r.noted = map[uint64]linkIndex{}, []*server.Snapshot{snap}, snap.Version
}

func (r *runner) indexSnapshots() {
	for _, snap := range r.unindexed {
		r.versions[snap.Version] = indexLinks(snap.Links)
		delete(r.versions, snap.Version-8)
	}
	r.unindexed = r.unindexed[:0]
}

// reply is what one op came back with, kept as it arrived.
type reply struct {
	o        *op
	lat      time.Duration
	status   int
	degraded bool // the router flagged the answer X-Alex-Fleet-Degraded
	err      error
	body     []byte  // in the runner's arena
	speed    float64 // of the stretch of the segment it was sent in
}

// send sends one op and times the round trip.
func (r *runner) send(o *op) reply {
	r.attempted++
	path := "/query"
	if !o.isQuery() {
		path = "/feedback"
	}
	var sp *span
	if r.tr != nil {
		sp = r.tr.begin(nil, "run."+shapeNames[o.shape], r.attempted)
	}
	t0 := time.Now()
	status, hdr, body, err := r.c.post(path, o.body)
	rp := reply{o: o, lat: time.Since(t0), status: status, err: err}
	if sp != nil {
		r.tr.end(sp)
	}
	at := len(r.arena)
	r.arena = append(r.arena, body...)
	rp.body = r.arena[at:len(r.arena):len(r.arena)]
	rp.degraded = hdr.Get("X-Alex-Fleet-Degraded") != ""
	if !o.isQuery() && status == http.StatusAccepted {
		r.sentLinks++
	}
	if r.versions != nil {
		r.noteSnapshot()
	}
	return rp
}

// answer describes a query's checked answer.
type answer struct {
	rows, links, bytes int
	digest             digest
}

// check decodes a reply and holds it to its reference.
func (r *runner) check(rp *reply) answer {
	o, a := rp.o, answer{bytes: len(rp.body)}
	if rp.err != nil {
		r.failf(o, "%v", rp.err)
		return a
	}
	if !o.isQuery() {
		if rp.status != http.StatusAccepted {
			r.failf(o, "status %d: %s", rp.status, rp.body)
		}
		return a
	}
	if rp.status != http.StatusOK {
		r.failf(o, "status %d: %s", rp.status, rp.body)
		return a
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		r.failf(o, "bad answer: %v", err)
		return a
	}
	if len(resp.DegradedSources) > 0 {
		r.failf(o, "degraded sources %v", resp.DegradedSources)
	}
	if rp.degraded {
		r.degraded++
	}
	a.rows, a.digest = len(resp.Rows), canonAnswer(resp.Rows)
	for _, row := range resp.Rows {
		a.links += len(row.Links)
	}
	var want digest
	if r.versions != nil {
		r.indexSnapshots()
		idx, ok := r.versions[resp.SnapshotVersion]
		if !ok {
			r.failf(o, "answer from unobserved snapshot version %d", resp.SnapshotVersion)
			return a
		}
		n := r.d.primary()
		want = canonAnswer(oracleLookup(n.dict, n.t2, idx, o.entity))
	} else {
		want = r.expected[o.text]
	}
	if a.digest != want {
		r.failf(o, "answer %s differs from reference %s for %q", hexDigest(a.digest)[:12], hexDigest(want)[:12], o.text)
	}
	return a
}

// journalSeconds is the time the primary has spent in journal
// write+fsync so far, by its own histogram; 0 without a journal.
func (r *runner) journalSeconds() float64 {
	if !r.w.feedback {
		return 0
	}
	return promValues(metricsText(r.d.primary().srv.Registry()))["alexd_journal_fsync_seconds_sum"]
}

// awaitApplied returns once the writer has applied every acked feedback
// item and published every full episode, so the engine holds exactly
// the acked feedback and the server's own counts are final.
func (r *runner) awaitApplied() error {
	want := float64(r.sentLinks - r.sentAtStart)
	srv := r.d.primary().srv
	for deadline := time.Now().Add(10 * time.Second); ; {
		applied := promValues(metricsText(srv.Registry()))["alexd_feedback_links_total"] - r.appliedAtStart
		if applied == want && srv.Snapshot().Episode >= r.sentLinks/episodeSize {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("writer applied %v of %v acked feedback links", applied, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *runner) next() *op {
	o := &r.ops[r.cursor%len(r.ops)]
	r.cursor++
	return o
}

// preludeEpisodes is how many episodes the feedback prelude completes:
// fewer than a checkpoint interval, so the journal alone holds them.
const preludeEpisodes = 4

// prelude is the discarded warm-up, and with it every text has been
// planned once: a fixed number of ops whose answers fold, in op order,
// into one digest. Static workloads ask every distinct text once.
// Feedback workloads run preludeEpisodes episodes and, at each episode's
// last post, wait for the writer to publish it, so which link set every
// lookup sees — and so the digest, which ends with the final link set —
// is a function of the seed alone.
func (r *runner) prelude() {
	h := sha256.New()
	step := func() {
		r.arena = r.arena[:0]
		rp := r.send(r.next())
		a := r.check(&rp)
		if !rp.o.isQuery() {
			return
		}
		r.preQueries++
		r.preRows += a.rows
		r.preLinks += a.links
		r.preBytes += a.bytes
		h.Write(a.digest[:])
	}
	switch {
	case r.w.feedback:
		srv := r.d.primary().srv
		for r.sentLinks < preludeEpisodes*episodeSize && r.failed == 0 {
			step()
			if r.sentLinks%episodeSize != 0 {
				continue
			}
			want := r.sentLinks / episodeSize
			for deadline := time.Now().Add(10 * time.Second); srv.Snapshot().Episode < want; {
				if time.Now().After(deadline) {
					r.failed++
					r.firstFailure = fmt.Sprintf("episode %d was not published within 10s", want)
					return
				}
				runtime.Gosched()
			}
			r.noteSnapshot()
		}
		final := srv.Snapshot().Links
		r.preCandidates = final.Len()
		d := linkSetDigest(r.d.primary().dict, final)
		h.Write(d[:])
	case r.w.joins:
		for range r.ops {
			step()
		}
	default:
		// One round of the lookup list is one permutation of the pool.
		for range lookupPool(r.d.primary()) {
			step()
		}
	}
	h.Sum(r.preDigest[:0])
}

// segment is what one measured stretch of a fixed number of ops
// recorded, as the clock read it and in reported units (clock.go).
type segment struct {
	ops      int
	wallS    float64 // seconds of driving, spins excluded
	cpuUs    float64 // process user+sys CPU, spins excluded
	queryP50 float64 // µs
	speed    float64 // over the whole segment; reported CPU time is cpuUs × speed

	// In reported units. The host changes speed within a segment, so each
	// stretch between two spins is scaled by those two spins' speed:
	// scaling the segment's total by its mean speed would overstate a
	// segment the more the more its speed varied.
	repWallS, repQueryP50, repAckP50 float64

	allocBytes, mallocs uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSegment sends the next n ops of the list and, once the clock has
// stopped, checks their answers. The query and ack latencies are
// appended to lat and ack in reported µs.
func (r *runner) runSegment(n int, lat, ack *[]float64) segment {
	runtime.GC()
	if cap(r.replies) < n {
		r.replies = make([]reply, 0, n)
	}
	r.replies, r.arena = r.replies[:0], r.arena[:0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := segment{ops: n}
	journal0 := r.journalSeconds()
	var clk cpuClock
	cpu0 := cpuTime()
	clk.sample()
	// The stretch under way: since when, from which reply on, and how
	// long the spin before it took.
	since, from, prev := time.Now(), 0, clk.last
	closeStretch := func() {
		took := time.Since(since) - clk.last
		speed := clk.speedBetween(prev)
		s.wallS += took.Seconds()
		s.repWallS += took.Seconds() * speed
		for i := from; i < len(r.replies); i++ {
			r.replies[i].speed = speed
		}
		since, from, prev = time.Now(), len(r.replies), clk.last
	}
	for i := 0; i < n; i++ {
		if clk.tick() {
			closeStretch()
		}
		r.replies = append(r.replies, r.send(r.next()))
	}
	clk.sample()
	closeStretch()
	s.cpuUs = us(cpuTime() - cpu0 - clk.spent) // one P: the spins' CPU time is their wall time
	runtime.ReadMemStats(&after)
	s.speed = clk.speed()
	// A post is acked after the journal's write+fsync, and on this sandbox
	// that is the virtual disk's time: as it slowed and recovered, the
	// clocked ops_per_s of identical code ranged from 1 730 to 4 230 over
	// ten consecutive runs. So the reported time leaves it out, as the
	// server's own histogram measured it; it is reported beside it
	// (server.journal_fsync_mean_us, wal.fsyncs_per_feedback). The clocked
	// time keeps it.
	s.repWallS *= 1 - (r.journalSeconds()-journal0)/s.wallS
	s.allocBytes, s.mallocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs

	lat0, ack0 := len(*lat), len(*ack)
	var clocked []float64
	for i := range r.replies {
		rp := &r.replies[i]
		r.check(rp)
		if rp.o.isQuery() {
			clocked = append(clocked, us(rp.lat))
			*lat = append(*lat, us(rp.lat)*rp.speed)
		} else {
			*ack = append(*ack, us(rp.lat)*rp.speed)
		}
	}
	sort.Float64s(clocked)
	s.queryP50 = median(clocked)
	s.repQueryP50 = median(sortedCopy((*lat)[lat0:]))
	s.repAckP50 = median(sortedCopy((*ack)[ack0:]))
	return s
}
