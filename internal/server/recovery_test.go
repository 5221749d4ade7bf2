// Crash-recovery and chaos tests of the serving layer's durability
// contract: a 202 ack means the feedback survives any crash, and a
// recovered server converges to the exact state an uninterrupted run
// would have reached.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
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
// share: tiny episodes and frequent checkpoints.
func durableCfg(dir string) Config {
	return Config{
		EpisodeSize:     2,
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
			s.Abort() // crash: no drain, no final checkpoint
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
	s.Abort()
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

// TestEpisodesCloseByCountOnly: the publication interval serves a
// rejection without closing the open episode; only EpisodeSize link
// items close it.
func TestEpisodesCloseByCountOnly(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	cfg := durableCfg(t.TempDir())
	cfg.EpisodeSize = 3
	cfg.FlushInterval = 5 * time.Millisecond
	s, _, client := newTestServer(t, sys, dict, sources, cfg)
	good := []LinkJSON{{E1: "http://ds1/a1", E2: "http://ds2/b1"}}
	bad := LinkJSON{E1: "http://ds1/a2", E2: "http://ds2/b2w"}

	if err := client.Feedback([]LinkJSON{bad}, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	ls, err := client.Links()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ls.Links {
		if l == bad {
			t.Fatalf("rejected link %v still served 10 publication intervals after its ack", bad)
		}
	}
	if ep := s.Snapshot().Episode; ep != 0 {
		t.Fatalf("episode = %d after 1 of %d link items, want 0: the timer closed an episode", ep, cfg.EpisodeSize)
	}

	for i := 0; i < 2; i++ {
		if err := client.Feedback(good, true); err != nil {
			t.Fatal(err)
		}
	}
	waitForSnapshotEpisode(t, s, 1)
	if ep := s.Snapshot().Episode; ep != 1 {
		t.Fatalf("episode = %d after %d link items, want 1", ep, cfg.EpisodeSize)
	}
}

// TestReplayEqualsLiveRun: a server fed in bursts with pauses longer
// than its publication interval, crashed and recovered over its data
// directory, is the twin that got the same feedback without pauses —
// same links, same episode — and the two stay equal under further
// feedback. At CheckpointEvery 1 recovery restores a checkpoint and
// replays a tail; at the default it replays the journal alone.
func TestReplayEqualsLiveRun(t *testing.T) {
	script := feedbackScript(10) // 13 link items: three episodes of 4, one open
	more := feedbackScript(5)
	linkItems := func(reqs []FeedbackRequest) (n uint64) {
		for _, r := range reqs {
			n += uint64(len(r.Links))
		}
		return n
	}
	for _, every := range []int{DefaultConfig().CheckpointEvery, 1} {
		t.Run(fmt.Sprintf("checkpointEvery=%d", every), func(t *testing.T) {
			cfg := Config{
				EpisodeSize:     4,
				FlushInterval:   5 * time.Millisecond,
				CheckpointEvery: every,
				DataDir:         t.TempDir(),
				DrainTimeout:    5 * time.Second,
			}
			dict, sources, sys, _ := tinyWorld(t)
			live, err := New(sys, dict, sources, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Bursts of 1 and 3 link items (script items {0}, {1,2}, {3}, …),
			// each followed by four publication intervals of silence.
			for i := 0; i < len(script); {
				end := i + 1
				if i%3 == 1 {
					end = i + 2
				}
				postAll(t, live, script[i:end])
				time.Sleep(20 * time.Millisecond)
				i = end
			}
			live.Abort()
			live.Close() //nolint:errcheck // releases the journal fd

			dictR, sourcesR, sysR, _ := tinyWorld(t)
			rec, err := New(sysR, dictR, sourcesR, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dictT, sourcesT, sysT, _ := tinyWorld(t)
			twinCfg := cfg
			twinCfg.DataDir = ""
			twin, err := New(sysT, dictT, sourcesT, twinCfg)
			if err != nil {
				t.Fatal(err)
			}
			same := func(when string, r, w *Snapshot) {
				t.Helper()
				got, want := linkIRIs(dictR, r.Links), linkIRIs(dictT, w.Links)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: recovered links %v, twin %v", when, got, want)
				}
				if r.Episode != w.Episode {
					t.Fatalf("%s: recovered episode %d, twin %d", when, r.Episode, w.Episode)
				}
			}

			postAll(t, twin, script)
			same("after recovery", rec.Snapshot(), settle(t, twin, linkItems(script)))
			st := rec.Recovery()
			if every == 1 && (st.CheckpointSeq == 0 || st.Replayed == 0) {
				t.Fatalf("recovery restored a checkpoint at %d and replayed %d records; want a checkpoint and a tail",
					st.CheckpointSeq, st.Replayed)
			}

			recBase := rec.metrics.feedbackLinks.Value()
			postAll(t, rec, more)
			postAll(t, twin, more)
			same("after further feedback",
				settle(t, rec, recBase+linkItems(more)),
				settle(t, twin, linkItems(script)+linkItems(more)))

			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if err := twin.Close(); err != nil {
				t.Fatal(err)
			}
			same("after shutdown", rec.Snapshot(), twin.Snapshot())
		})
	}
}

// settle waits until s's writer has applied n link items in all, then
// for the publication interval to serve them.
func settle(t *testing.T, s *Server, n uint64) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.feedbackLinks.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("writer applied %d of %d link items", s.metrics.feedbackLinks.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * s.cfg.FlushInterval)
	return s.Snapshot()
}

// gatedEngine wraps a core.System, blocking each FinishEpisode until
// the gate yields a token (closing the gate releases it for good), so
// tests can hold the writer mid-pipeline while producers keep
// journaling and acking items. The embedded System supplies the rest
// of the Engine.
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

// savingEngine is a gatedEngine that counts Save calls, so a test can
// tell an encoded-then-discarded checkpoint from one never encoded.
type savingEngine struct {
	gatedEngine
	saves atomic.Int32
}

func (e *savingEngine) Save(w io.Writer) error {
	e.saves.Add(1)
	return e.System.Save(w)
}

// TestCheckpointDueWithQueuedItemsSkipsSave: a checkpoint due while an
// acked item is still queued is skipped (see
// TestCheckpointSparesQueuedAckedRecords), and the skip comes before
// the engine is encoded. Encoding first and then discarding the bytes
// costs a full Save at every episode boundary for as long as feedback
// keeps the queue non-empty.
func TestCheckpointDueWithQueuedItemsSkipsSave(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	eng := &savingEngine{gatedEngine: gatedEngine{System: sys, gate: make(chan struct{})}}
	cfg := durableCfg(t.TempDir())
	cfg.EpisodeSize = 1 // every item closes an episode
	cfg.CheckpointEvery = 1
	s, err := New(eng, dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	script := feedbackScript(2)
	// Item 1: the writer applies it and blocks inside FinishEpisode.
	if code := postFeedback(t, ts.URL, script[0]); code != http.StatusAccepted {
		t.Fatalf("feedback 0: status %d", code)
	}
	// Item 2: acked and queued while the writer is held.
	if code := postFeedback(t, ts.URL, script[1]); code != http.StatusAccepted {
		t.Fatalf("feedback 1: status %d", code)
	}
	// Release episode 1: its checkpoint is due with item 2 queued. The
	// writer then dequeues item 2 and blocks in episode 2.
	eng.gate <- struct{}{}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up item 2")
		}
		time.Sleep(time.Millisecond)
	}
	if saves, ckpts := eng.saves.Load(), s.metrics.checkpoints.Value(); saves != 0 || ckpts != 0 {
		t.Fatalf("checkpoint due with an acked item queued: %d Save calls, %d checkpoints; want 0 and 0", saves, ckpts)
	}

	close(eng.gate)
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
	s.Abort()
	s.Close() //nolint:errcheck // releases the journal fd

	// First recovery replays several episodes, then crashes again before
	// serving anything: no drain, no graceful checkpoint.
	dict1, sources1, sys1, _ := tinyWorld(t)
	rec1, err := New(sys1, dict1, sources1, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec1.Abort()
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

// TestCorruptCheckpointFailsStartup: checkpoints at two episode
// boundaries with acked feedback between them, a crash, and one byte of
// the newest checkpoint flipped. The journal was reset at that
// checkpoint, so the feedback acked since the older one lives nowhere
// else: New must refuse to start and name the file, not recover the
// older checkpoint without it.
func TestCorruptCheckpointFailsStartup(t *testing.T) {
	dir := t.TempDir()
	dict, sources, sys, _ := tinyWorld(t)
	cfg := durableCfg(dir)
	cfg.EpisodeSize = 1 // every item closes an episode
	cfg.CheckpointEvery = 1
	s, err := New(sys, dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := feedbackScript(2)
	postAll(t, s, script[:1])
	waitForCheckpoints(t, s, 1)
	postAll(t, s, script[1:])
	waitForCheckpoints(t, s, 2)
	s.Abort()
	s.Close() //nolint:errcheck // releases the journal fd

	names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoint in %s (%v)", dir, err)
	}
	sort.Strings(names)
	newest := names[len(names)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	dict2, sources2, sys2, _ := tinyWorld(t)
	ffs := faultfs.New(nil)
	cfg.FS = ffs
	rec, err := New(sys2, dict2, sources2, cfg)
	if err == nil {
		st := rec.Recovery()
		rec.Close()
		t.Fatalf("New recovered checkpoint seq %d and replayed %d records over a corrupt %s; %d were acked",
			st.CheckpointSeq, st.Replayed, filepath.Base(newest), len(script))
	}
	if !strings.Contains(err.Error(), filepath.Base(newest)) {
		t.Fatalf("New: %v; want an error naming %s", err, filepath.Base(newest))
	}
	if n := ffs.OpenHandles(); n != 0 {
		t.Fatalf("the failed New left %d file handles open", n)
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

// TestProtocolEraStateIsRefused: a data directory an earlier build
// wrote in a format this one does not read — a journal record or
// checkpoint of the cross-shard prepare/commit protocol, a version-1 gob
// snapshot — is refused by name (the record or checkpoint sequence and
// who wrote it), never skipped and never misread as feedback or engine
// state.
func TestProtocolEraStateIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, log *wal.Log)
		want  []string
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
			want: []string{"journal record 2 ", "cross-shard prepare/commit protocol"},
		},
		{
			name: "checkpoint with the ALEXCKPT envelope",
			write: func(t *testing.T, log *wal.Log) {
				if err := log.Checkpoint(7, append([]byte("ALEXCKPT"), 2, 0, 0, 0, '{', '}')); err != nil {
					t.Fatal(err)
				}
			},
			want: []string{"checkpoint (seq 7)", "ALEXCKPT", "cross-shard prepare/commit protocol"},
		},
		{
			// The head of a version-1 snapshot: gob's definition of
			// the type it encoded, systemWire.
			name: "checkpoint with a gob snapshot",
			write: func(t *testing.T, log *wal.Log) {
				if err := log.Checkpoint(9, []byte("W\x7f\x03\x01\x01\x0asystemWire\x01\xff\x80\x00\x01\x05\x01\x07Version\x01\x04\x00")); err != nil {
					t.Fatal(err)
				}
			},
			want: []string{"checkpoint (seq 9)", "gob"},
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
				t.Fatal("New accepted a data directory an earlier build wrote")
			}
			for _, want := range append(tc.want, "start from an empty data directory") {
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

// TestFeedbackBodyBounded: a /feedback body past MaxQueryBodyBytes is
// refused with 413 before anything is journaled or queued, and the next
// feedback is acked as usual. Decoded unbounded, such a body was acked,
// and a journal record longer than the scanner reads back would have
// cut every record acked after it at the next start.
func TestFeedbackBodyBounded(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	s, ts, client := newTestServer(t, sys, dict, sources, durableCfg(t.TempDir()))
	body := mustJSON(t, feedbackScript(1)[0]) + strings.Repeat(" ", MaxQueryBodyBytes)
	resp, err := http.Post(ts.URL+"/feedback", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized feedback: status %d, want 413", resp.StatusCode)
	}
	s.logMu.Lock()
	journaled := s.log.LastSeq()
	s.logMu.Unlock()
	if journaled != 0 {
		t.Fatalf("an oversized feedback was journaled (last seq %d)", journaled)
	}
	m, err := client.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, m, "alexd_feedback_total"); v != 0 {
		t.Fatalf("alexd_feedback_total = %v after an oversized feedback, want 0", v)
	}
	if code := postFeedback(t, ts.URL, feedbackScript(1)[0]); code != http.StatusAccepted {
		t.Fatalf("feedback after the refusal: status %d", code)
	}
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
