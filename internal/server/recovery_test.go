// Crash-recovery and chaos tests of the serving layer's durability
// contract: a 202 ack means the feedback survives any crash, and a
// recovered server converges to the exact state an uninterrupted run
// would have reached.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"alex/internal/core"
	"alex/internal/faultfs"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/synth"
	"alex/internal/wal"
)

// durableCfg is the deterministic configuration the recovery tests
// share: tiny episodes, no timer flushes (only EpisodeSize and the
// drain path close episodes, so batching is a pure function of the
// feedback sequence), frequent checkpoints.
func durableCfg(dir string) Config {
	return Config{
		EpisodeSize:     2,
		FlushInterval:   time.Hour,
		CheckpointEvery: 2,
		DataDir:         dir,
		DrainTimeout:    5 * time.Second,
	}
}

// feedbackScript returns a deterministic mixed approve/reject sequence
// over tinyWorld's two links.
func feedbackScript(n int) []FeedbackRequest {
	good := []LinkJSON{{E1: "http://ds1/a1", E2: "http://ds2/b1"}}
	bad := []LinkJSON{{E1: "http://ds1/a2", E2: "http://ds2/b2w"}}
	out := make([]FeedbackRequest, n)
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = FeedbackRequest{Approve: true, Links: good}
		case 1:
			out[i] = FeedbackRequest{Approve: false, Links: bad}
		default:
			out[i] = FeedbackRequest{Approve: true, Links: append(append([]LinkJSON(nil), good...), bad...)}
		}
	}
	return out
}

func postFeedback(t *testing.T, url string, req FeedbackRequest) int {
	t.Helper()
	resp, err := http.Post(url+"/feedback", "application/json", strings.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// linkIRIs renders a link set as sorted IRI pairs, comparable across
// servers with independently built (but identically loaded)
// dictionaries.
func linkIRIs(dict *rdf.Dict, ls links.Set) []string {
	out := make([]string, 0, ls.Len())
	for _, l := range ls.Slice() {
		out = append(out, dict.Term(l.E1).Value+" "+dict.Term(l.E2).Value)
	}
	sort.Strings(out)
	return out
}

// runTwin applies a feedback prefix to a fresh, identically seeded
// world on a journal-less server and returns its final (post-Close)
// link set and episode count — the ground truth a recovered server must
// match.
func runTwin(t *testing.T, script []FeedbackRequest) ([]string, int) {
	t.Helper()
	dict, sources, sys, _ := tinyWorld(t)
	cfg := durableCfg("")
	cfg.DataDir = ""
	s, err := New(sys, dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	for i, req := range script {
		if code := postFeedback(t, ts.URL, req); code != http.StatusAccepted {
			t.Fatalf("twin feedback %d: status %d", i, code)
		}
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return linkIRIs(dict, s.Snapshot().Links), sys.Episode()
}

// TestCrashRecoveryEquivalence is the core durability acceptance test:
// ack k feedback items, kill the writer at an arbitrary point in its
// pipeline (some items applied, some mid-episode, some only journaled;
// checkpoints interleaved), recover into a fresh engine, and require
// the recovered state to equal — link for link, episode for episode —
// an uninterrupted run over the same k items.
func TestCrashRecoveryEquivalence(t *testing.T) {
	script := feedbackScript(9)
	for kill := 1; kill <= len(script); kill += 2 {
		kill := kill
		t.Run(fmt.Sprintf("kill=%d", kill), func(t *testing.T) {
			dir := t.TempDir()
			dict, sources, sys, _ := tinyWorld(t)
			s, err := New(sys, dict, sources, durableCfg(dir))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			for i := 0; i < kill; i++ {
				if code := postFeedback(t, ts.URL, script[i]); code != http.StatusAccepted {
					t.Fatalf("feedback %d: status %d, want 202", i, code)
				}
			}
			ts.Close()
			s.abort() // crash: no drain, no final checkpoint
			s.Close() //nolint:errcheck // releases the journal fd

			dict2, sources2, sys2, _ := tinyWorld(t)
			rec, err := New(sys2, dict2, sources2, durableCfg(dir))
			if err != nil {
				t.Fatalf("recovery after kill=%d: %v", kill, err)
			}
			st := rec.Recovery()
			if int(st.CheckpointSeq)+st.Replayed < kill {
				t.Fatalf("recovery covered %d+%d records, %d were acked",
					st.CheckpointSeq, st.Replayed, kill)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			wantLinks, wantEpisodes := runTwin(t, script[:kill])
			gotLinks := linkIRIs(dict2, rec.Snapshot().Links)
			if fmt.Sprint(gotLinks) != fmt.Sprint(wantLinks) {
				t.Fatalf("recovered links diverge from uninterrupted run:\n got %v\nwant %v", gotLinks, wantLinks)
			}
			if got := sys2.Episode(); got != wantEpisodes {
				t.Fatalf("recovered episodes = %d, uninterrupted run = %d", got, wantEpisodes)
			}
		})
	}
}

// exploringWorld is a synthetic pair small enough to build four times
// under the race detector and large enough that approvals explore:
// tinyWorld's two one-feature links never reach a choice that depends
// on a random draw, so it cannot tell a checkpoint that restores the
// exploration streams from one that does not.
type exploringWorld struct {
	ds      *synth.Dataset
	initial []links.Link
}

func newExploringWorld() exploringWorld {
	ds := synth.Generate(synth.Profile{
		Name: "recovery-world", N1: 40, N2: 35, Matched: 20,
		ExactFrac: 0.4, Traps: 4, AmbiguousFrac: 0.4, SharedTypeFrac: 0.5,
		EpisodeSize: 50, Partitions: 2, Seed: 7,
	})
	var initial []links.Link
	for _, sc := range paris.Link(ds.G1, ds.G2, ds.Entities1, ds.Entities2, paris.NewOptions()) {
		initial = append(initial, sc.Link)
	}
	return exploringWorld{ds: ds, initial: initial}
}

// system builds a fresh engine over the (read-only, shared) graphs.
func (w exploringWorld) system() *core.System {
	cfg := core.DefaultConfig()
	cfg.Partitions = 2
	return core.New(w.ds.G1, w.ds.G2, w.ds.Entities1, w.ds.Entities2, w.initial, cfg)
}

func (w exploringWorld) server(t *testing.T, cfg Config) (*Server, *core.System) {
	t.Helper()
	sys := w.system()
	sources := []federation.Source{{Name: "ds1", Graph: w.ds.G1}, {Name: "ds2", Graph: w.ds.G2}}
	s, err := New(sys, w.ds.Dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, sys
}

// script walks a scout engine through the given number of episodes of
// ground-truth verdicts on its first candidates, one link per request,
// and returns the requests: a fixed sequence that keeps hitting live
// candidates on any engine that evolves as the scout did.
func (w exploringWorld) script(episodes, perEpisode int) []FeedbackRequest {
	scout := w.system()
	var out []FeedbackRequest
	for ep := 0; ep < episodes; ep++ {
		cands := scout.Candidates().Slice()
		scout.BeginEpisode()
		for i := 0; i < perEpisode; i++ {
			l := cands[i%len(cands)]
			ok := w.ds.GroundTruth.Has(l)
			scout.Feedback(l, ok)
			out = append(out, FeedbackRequest{Approve: ok, Links: []LinkJSON{{
				E1: w.ds.Dict.Term(l.E1).Value, E2: w.ds.Dict.Term(l.E2).Value,
			}}})
		}
		scout.FinishEpisode()
	}
	return out
}

func postAll(t *testing.T, s *Server, script []FeedbackRequest) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i, req := range script {
		if code := postFeedback(t, ts.URL, req); code != http.StatusAccepted {
			t.Fatalf("feedback %d: status %d, want 202", i, code)
		}
	}
}

// TestCrashRecoveryEquivalenceAfterCheckpoint is the half of the
// durability contract TestCrashRecoveryEquivalence cannot see: a crash
// AFTER a checkpoint, on an engine that explores. Recovery restores
// the checkpoint, replays a tail that ends mid-episode, and then keeps
// serving; link for link and episode for episode it must end where an
// uninterrupted twin ends. The checkpoint has to carry the position of
// the exploration streams for that (core.TestResumeIsExact): the
// replayed approvals draw from them.
func TestCrashRecoveryEquivalenceAfterCheckpoint(t *testing.T) {
	const perEpisode, episodes = 40, 9
	world := newExploringWorld()
	script := world.script(episodes, perEpisode)
	cfg := func(dir string) Config {
		c := durableCfg(dir)
		c.EpisodeSize = perEpisode
		c.CheckpointEvery = 4
		return c
	}

	twin, twinSys := world.server(t, cfg(""))
	postAll(t, twin, script)
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}
	if twinSys.Candidates().SymmetricDiff(links.NewSet(world.initial...)) == 0 {
		t.Fatal("the twin explored nothing; the test proves nothing")
	}

	// The checkpoint falls after episode 4 — the only boundary so far at
	// which CheckpointEvery has elapsed, reached with the queue drained —
	// and the crash a further episode and a half in.
	dir := t.TempDir()
	ckpt, crash := 4*perEpisode, 5*perEpisode+perEpisode/2
	s, _ := world.server(t, cfg(dir))
	postAll(t, s, script[:ckpt])
	waitForCheckpoints(t, s, 1)
	postAll(t, s, script[ckpt:crash])
	s.abort()
	s.Close() //nolint:errcheck // releases the journal fd

	rec, recSys := world.server(t, cfg(dir))
	if st := rec.Recovery(); st.CheckpointSeq != uint64(ckpt) || st.Replayed != crash-ckpt {
		t.Fatalf("recovery restored a checkpoint at %d and replayed %d records, want %d and %d",
			st.CheckpointSeq, st.Replayed, ckpt, crash-ckpt)
	}
	postAll(t, rec, script[crash:])
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if d := recSys.Candidates().SymmetricDiff(twinSys.Candidates()); d != 0 {
		t.Fatalf("recovered engine ends %d links from the uninterrupted twin (%d vs %d candidates)",
			d, recSys.CandidateCount(), twinSys.CandidateCount())
	}
	if got, want := recSys.Episode(), twinSys.Episode(); got != want {
		t.Fatalf("recovered engine closed %d episodes, the twin %d", got, want)
	}
}

// gatedEngine wraps a core.System, blocking each FinishEpisode until
// the gate yields a token (closing the gate releases it for good), so
// tests can hold the writer mid-pipeline while producers keep
// journaling and acking items. The embedded System's Save/Restore keep
// it a Checkpointer.
type gatedEngine struct {
	*core.System
	gate chan struct{}
}

func (g *gatedEngine) FinishEpisode() core.EpisodeStats {
	<-g.gate
	return g.System.FinishEpisode()
}

// copyDir snapshots the flat data directory into a fresh temp dir: the
// exact on-disk state a power cut at this instant would leave behind.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCheckpointSparesQueuedAckedRecords: a checkpoint reached while a
// later item is already journaled, 202-acked and queued must NOT reset
// the journal — that record would survive only in the in-memory queue,
// and a crash before the next checkpoint would lose acknowledged
// feedback. The writer is held inside FinishEpisode to pin the exact
// interleaving.
func TestCheckpointSparesQueuedAckedRecords(t *testing.T) {
	dir := t.TempDir()
	dict, sources, sys, _ := tinyWorld(t)
	eng := &gatedEngine{System: sys, gate: make(chan struct{})}
	cfg := durableCfg(dir)
	cfg.EpisodeSize = 1 // every item closes an episode
	cfg.CheckpointEvery = 1
	s, err := New(eng, dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	script := feedbackScript(2)
	// Item 1: the writer applies it and blocks inside FinishEpisode,
	// before the episode's checkpoint.
	if code := postFeedback(t, ts.URL, script[0]); code != http.StatusAccepted {
		t.Fatalf("feedback 0: status %d", code)
	}
	// Item 2: journaled, fsynced, acked and queued while the writer is
	// held — exactly the record a careless checkpoint would strand.
	if code := postFeedback(t, ts.URL, script[1]); code != http.StatusAccepted {
		t.Fatalf("feedback 1: status %d", code)
	}
	// Release episode 1: the writer reaches its checkpoint with item 2
	// still queued, then dequeues item 2 and blocks in episode 2. The
	// unbuffered send synchronizes with the writer sitting in
	// FinishEpisode, so the single token can only release episode 1.
	eng.gate <- struct{}{}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) > 0 { // the dequeue happens after the checkpoint decision
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up item 2")
		}
		time.Sleep(time.Millisecond)
	}

	// Cut the power here: recover a fresh engine from a copy of the
	// data directory and require BOTH acked items.
	snap := copyDir(t, dir)
	dict2, sources2, sys2, _ := tinyWorld(t)
	cfg2 := cfg
	cfg2.DataDir = snap
	cfg2.FS = nil
	rec, err := New(sys2, dict2, sources2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	st := rec.Recovery()
	if int(st.CheckpointSeq)+st.Replayed < len(script) {
		t.Fatalf("recovery covered %d+%d records, %d were acked (checkpoint stranded a queued item)",
			st.CheckpointSeq, st.Replayed, len(script))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// Ground truth: the same two items on an identically configured
	// journal-less twin.
	dict3, sources3, sys3, _ := tinyWorld(t)
	cfg3 := cfg
	cfg3.DataDir = ""
	tw, err := New(sys3, dict3, sources3, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	tts := httptest.NewServer(tw.Handler())
	for i, req := range script {
		if code := postFeedback(t, tts.URL, req); code != http.StatusAccepted {
			t.Fatalf("twin feedback %d: status %d", i, code)
		}
	}
	tts.Close()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	want := linkIRIs(dict3, tw.Snapshot().Links)
	if got := linkIRIs(dict2, rec.Snapshot().Links); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered links diverge (acked item lost to a checkpoint):\n got %v\nwant %v", got, want)
	}
	if got, wantEp := sys2.Episode(), sys3.Episode(); got != wantEp {
		t.Fatalf("recovered episodes = %d, uninterrupted run = %d", got, wantEp)
	}

	close(eng.gate) // release the held writer for a clean shutdown
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringRecoveryLosesNothing: recovery itself must be
// crash-safe. Replaying crosses several checkpoint intervals; a
// checkpoint taken mid-replay would reset the journal while the
// unreplayed tail exists only in memory, so a second crash right after
// recovery would lose acked records. kill=7 ends replay mid-episode,
// keeping the tail exposed.
func TestCrashDuringRecoveryLosesNothing(t *testing.T) {
	const kill = 7
	dir := t.TempDir()
	script := feedbackScript(kill)
	dict, sources, sys, _ := tinyWorld(t)
	// The live run never checkpoints, leaving the whole 7-item journal
	// as the tail; recovering it with CheckpointEvery=2 forces multiple
	// checkpoint-interval crossings during replay.
	liveCfg := durableCfg(dir)
	liveCfg.CheckpointEvery = 100
	s, err := New(sys, dict, sources, liveCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	for i, req := range script {
		if code := postFeedback(t, ts.URL, req); code != http.StatusAccepted {
			t.Fatalf("feedback %d: status %d", i, code)
		}
	}
	ts.Close()
	s.abort()
	s.Close() //nolint:errcheck // releases the journal fd

	// First recovery replays several episodes, then crashes again before
	// serving anything: no drain, no graceful checkpoint.
	dict1, sources1, sys1, _ := tinyWorld(t)
	rec1, err := New(sys1, dict1, sources1, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec1.abort()
	rec1.Close() //nolint:errcheck // releases the journal fd

	// The second recovery must still cover every acked item.
	dict2, sources2, sys2, _ := tinyWorld(t)
	rec2, err := New(sys2, dict2, sources2, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := rec2.Recovery()
	if int(st.CheckpointSeq)+st.Replayed < kill {
		t.Fatalf("second recovery covered %d+%d records, %d were acked (mid-replay checkpoint lost the tail)",
			st.CheckpointSeq, st.Replayed, kill)
	}
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}
	wantLinks, wantEpisodes := runTwin(t, script)
	if got := linkIRIs(dict2, rec2.Snapshot().Links); fmt.Sprint(got) != fmt.Sprint(wantLinks) {
		t.Fatalf("doubly-recovered links diverge:\n got %v\nwant %v", got, wantLinks)
	}
	if got := sys2.Episode(); got != wantEpisodes {
		t.Fatalf("doubly-recovered episodes = %d, uninterrupted run = %d", got, wantEpisodes)
	}
}

// TestCleanShutdownNeedsNoReplay: graceful Close leaves a final
// checkpoint, so the next start replays nothing and still sees every
// acked item.
func TestCleanShutdownNeedsNoReplay(t *testing.T) {
	dir := t.TempDir()
	script := feedbackScript(5)
	dict, sources, sys, _ := tinyWorld(t)
	s, err := New(sys, dict, sources, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	for i, req := range script {
		if code := postFeedback(t, ts.URL, req); code != http.StatusAccepted {
			t.Fatalf("feedback %d: status %d", i, code)
		}
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := linkIRIs(dict, s.Snapshot().Links)

	dict2, sources2, sys2, _ := tinyWorld(t)
	rec, err := New(sys2, dict2, sources2, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	st := rec.Recovery()
	if st.Replayed != 0 {
		t.Fatalf("clean shutdown still replayed %d records", st.Replayed)
	}
	if st.CheckpointSeq != uint64(len(script)) {
		t.Fatalf("checkpoint seq = %d, want %d (all acked items)", st.CheckpointSeq, len(script))
	}
	if got := linkIRIs(dict2, rec.Snapshot().Links); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restart changed the link set:\n got %v\nwant %v", got, want)
	}
}

// TestProtocolEraStateIsRefused: a data directory written by a build
// that had the cross-shard prepare/commit protocol is refused by name —
// the record or checkpoint sequence and who wrote it — never skipped
// and never misread as feedback or engine state.
func TestProtocolEraStateIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, log *wal.Log)
		want  string
	}{
		{
			name: "journal record with the 0x00 envelope",
			write: func(t *testing.T, log *wal.Log) {
				if _, err := log.Append([]byte(`{"approve":true,"links":[{"e1":"http://ds1/a1","e2":"http://ds2/b1"}]}`)); err != nil {
					t.Fatal(err)
				}
				if _, err := log.Append(append([]byte{0x00, 'P'}, `{"id":"t1","owners":[0,1]}`...)); err != nil {
					t.Fatal(err)
				}
			},
			want: "journal record 2 ",
		},
		{
			name: "checkpoint with the ALEXCKPT envelope",
			write: func(t *testing.T, log *wal.Log) {
				if err := log.Checkpoint(7, append([]byte("ALEXCKPT"), 2, 0, 0, 0, '{', '}')); err != nil {
					t.Fatal(err)
				}
			},
			want: "checkpoint (seq 7) ",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.write(t, log)
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			dict, sources, sys, _ := tinyWorld(t)
			s, err := New(sys, dict, sources, durableCfg(dir))
			if err == nil {
				s.Close()
				t.Fatal("New accepted a data directory a build with the cross-shard protocol wrote")
			}
			for _, want := range []string{tc.want, "cross-shard prepare/commit protocol"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("New: %v; want an error containing %q", err, want)
				}
			}
		})
	}
}

// TestFeedbackNotAckedWhenJournalFails: a failing fsync must surface as
// 503 (retryable, not acked), never as a 202 the server cannot honor.
func TestFeedbackNotAckedWhenJournalFails(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	dict, sources, sys, _ := tinyWorld(t)
	cfg := durableCfg(dir)
	cfg.FS = ffs
	s, err := New(sys, dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	script := feedbackScript(2)
	if code := postFeedback(t, ts.URL, script[0]); code != http.StatusAccepted {
		t.Fatalf("healthy feedback: status %d", code)
	}
	ffs.FailAllSyncs(true)
	resp, err := http.Post(ts.URL+"/feedback", "application/json", strings.NewReader(mustJSON(t, script[1])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fsync-failure feedback: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// The journal heals once fsync works again.
	ffs.FailAllSyncs(false)
	if code := postFeedback(t, ts.URL, script[1]); code != http.StatusAccepted {
		t.Fatalf("post-recovery feedback: status %d", code)
	}
}

// TestDegradedQueryMarkedOnWire: a query over a federation with a dead
// source answers partially, with the degradation marker in both the
// JSON body and the X-Alex-Degraded header, and /healthz names the
// open breaker.
func TestDegradedQueryMarkedOnWire(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	sources[1].Access = func(ctx context.Context) error {
		return fmt.Errorf("connection refused")
	}
	cfg := Config{Resilience: federation.Resilience{
		SourceTimeout: 50 * time.Millisecond,
		Retries:       0,
		BackoffBase:   time.Millisecond,
		Breaker:       federation.BreakerConfig{Failures: 1, Cooldown: time.Hour, Successes: 1},
	}}
	s, ts, client := newTestServer(t, sys, dict, sources, cfg)

	// Unbound predicate: source selection cannot exclude ds2, so the
	// query probes it and must degrade.
	body := `{"query":"SELECT ?s ?o WHERE { ?s ?p ?o . }"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query status = %d, want 200 (partial results)", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Alex-Degraded"); got != "ds2" {
		t.Fatalf("X-Alex-Degraded = %q, want \"ds2\"", got)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.DegradedSources) != 1 || qr.DegradedSources[0] != "ds2" {
		t.Fatalf("degraded_sources = %v", qr.DegradedSources)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("rows = %d, want ds1's 2 label rows", len(qr.Rows))
	}

	// The failure tripped the breaker (threshold 1); /healthz reports it.
	h, err := client.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Sources) != 2 {
		t.Fatalf("healthz sources = %+v", h.Sources)
	}
	if h.Sources[0].Breaker != "closed" || h.Sources[0].Guarded {
		t.Fatalf("ds1 health = %+v, want unguarded closed", h.Sources[0])
	}
	if h.Sources[1].Breaker != "open" || !h.Sources[1].Guarded {
		t.Fatalf("ds2 health = %+v, want guarded open", h.Sources[1])
	}

	// /metrics exposes the labeled breaker gauge and the degraded counter.
	m, err := client.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, `alexd_source_breaker_state{source="ds2"} 1`) {
		t.Fatalf("breaker gauge missing or wrong:\n%s", m)
	}
	if v := metricValue(t, m, "alexd_degraded_queries_total"); v != 1 {
		t.Fatalf("alexd_degraded_queries_total = %v, want 1", v)
	}
	_ = s
}

// TestNoGoroutineLeaks cycles full server lifetimes (start, serve
// queries and feedback, shut down) and requires the goroutine count to
// return to its baseline: neither the writer nor the journal may leak
// (a query has no goroutine of its own to leak).
func TestNoGoroutineLeaks(t *testing.T) {
	dir := t.TempDir()
	cycle := func() {
		dict, sources, sys, _ := tinyWorld(t)
		cfg := durableCfg(dir)
		cfg.FlushInterval = 10 * time.Millisecond
		s, err := New(sys, dict, sources, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		client := NewClient(ts.URL)
		if _, err := client.Query(`SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`); err != nil {
			t.Fatal(err)
		}
		if err := client.Feedback([]LinkJSON{{E1: "http://ds1/a1", E2: "http://ds2/b1"}}, true); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Healthz(); err != nil {
			t.Fatal(err)
		}
		client.CloseIdleConnections()
		ts.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	cycle() // warm-up: lets the runtime and net/http settle their helpers
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		cycle()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines: %d before, %d after 5 cycles\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
