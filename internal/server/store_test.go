// Tests of the disk-backed segment store's integration with the
// serving layer: compaction and store checkpoints at episode
// boundaries, the /healthz backend section, the store gauges on
// /metrics, skip-when-clean checkpointing, and crash-during-compaction
// recovery (torn compaction falls back to the previous segment
// generation while the journal preserves every acked feedback item).
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"alex/internal/core"
	"alex/internal/faultfs"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
	"alex/internal/wal"
)

// diskWorld mirrors tinyWorld exactly — same triples, entities and
// initial links — but serves both sources from a disk-backed
// store.Set, so store-integration tests can compare against the
// in-memory twin link for link.
func diskWorld(t *testing.T, fsys wal.FS, dir string) (*rdf.Dict, []federation.Source, *core.System, *store.Set, links.Set) {
	t.Helper()
	set, err := store.Create(dir, nil, store.Options{FS: fsys, Meta: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() }) //nolint:errcheck // read-only teardown
	s1, err := set.AddSource("ds1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := set.AddSource("ds2")
	if err != nil {
		t.Fatal(err)
	}
	dict := set.Dict()
	ins := func(src *store.Segmented, s, p, o rdf.Term) {
		src.InsertIDs(dict.Intern(s), dict.Intern(p), dict.Intern(o))
	}
	label := rdf.IRI("http://ds1/label")
	name := rdf.IRI("http://ds2/name")
	a1, a2 := rdf.IRI("http://ds1/a1"), rdf.IRI("http://ds1/a2")
	b1, b2w := rdf.IRI("http://ds2/b1"), rdf.IRI("http://ds2/b2w")
	ins(s1, a1, label, rdf.Literal("alpha"))
	ins(s1, a2, label, rdf.Literal("beta"))
	ins(s2, b1, name, rdf.Literal("alpha prime"))
	ins(s2, b2w, name, rdf.Literal("unrelated"))

	id := func(term rdf.Term) rdf.ID {
		i, ok := dict.Lookup(term)
		if !ok {
			t.Fatalf("unknown term %v", term)
		}
		return i
	}
	initial := links.NewSet(
		links.Link{E1: id(a1), E2: id(b1)},
		links.Link{E1: id(a2), E2: id(b2w)},
	)
	set.SetEntities("ds1", s1.SubjectIDs())
	set.SetEntities("ds2", s2.SubjectIDs())
	set.SetInitialLinks(initial.Slice())
	sys := core.New(s1, s2, s1.SubjectIDs(), s2.SubjectIDs(), initial.Slice(), core.DefaultConfig())
	sources := []federation.Source{{Name: "ds1", Graph: s1}, {Name: "ds2", Graph: s2}}
	return dict, sources, sys, set, initial
}

// storeDirState fingerprints the store directory (sorted
// name:size:mtime) so tests can assert a clean checkpoint writes
// nothing at all.
func storeDirState(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, fmt.Sprintf("%s:%d:%s", fi.Name(), fi.Size(), fi.ModTime()))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// waitForSnapshotEpisode polls the published snapshot until the writer
// has closed at least n episodes.
func waitForSnapshotEpisode(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Episode < n {
		if time.Now().After(deadline) {
			t.Fatalf("writer never reached episode %d (at %d)", n, s.Snapshot().Episode)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitForCheckpoints polls until the writer has completed n journal
// checkpoints. The counter moves at the very end of the post-episode
// work, so once it reads n the writer touches neither the engine nor
// the store until the next feedback item arrives.
func waitForCheckpoints(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.checkpoints.Value() < uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("writer never completed checkpoint %d (at %d)", n, s.metrics.checkpoints.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

func getHealth(t *testing.T, url string) HealthResponse {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getMetricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestStoreBackedServerHealthAndMetrics runs the full serving loop on
// the disk backend: queries and feedback behave as on the mem backend,
// /healthz reports backend "disk" with per-source segment/delta
// counts, and /metrics exposes the store checkpoint gauge plus the
// snapshot-load gauge fed from Config.StoreLoadSeconds.
func TestStoreBackedServerHealthAndMetrics(t *testing.T) {
	dict, sources, sys, set, _ := diskWorld(t, nil, t.TempDir())
	cfg := Config{
		EpisodeSize:      1,
		FlushInterval:    time.Hour,
		CheckpointEvery:  1,
		Stores:           set,
		StoreLoadSeconds: 1.25,
	}
	s, ts, client := newTestServer(t, sys, dict, sources, cfg)

	// The disk backend serves queries like the mem backend does.
	res, err := client.Query(`SELECT ?s WHERE { ?s <http://ds1/label> "alpha" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Binding["s"].Value != "http://ds1/a1" {
		t.Fatalf("disk-backed query rows: %v", res.Rows)
	}

	// An episode compacts the delta into a segment and checkpoints the
	// store (it was never compacted, so the first checkpoint writes).
	if code := postFeedback(t, ts.URL, feedbackScript(1)[0]); code != http.StatusAccepted {
		t.Fatalf("feedback status %d", code)
	}
	waitForSnapshotEpisode(t, s, 1)
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.storeCheckpoints.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("store checkpoint never ran")
		}
		time.Sleep(time.Millisecond)
	}

	h := getHealth(t, ts.URL)
	if h.Store.Backend != "disk" {
		t.Fatalf("healthz backend = %q, want disk", h.Store.Backend)
	}
	if h.Store.Generation == 0 {
		t.Fatal("healthz store generation still 0 after checkpoint")
	}
	if len(h.Store.Sources) != 2 {
		t.Fatalf("healthz store sources: %+v", h.Store.Sources)
	}
	for _, src := range h.Store.Sources {
		if src.Segments != 1 || src.SegmentTriples != 2 || src.DeltaTriples != 0 {
			t.Fatalf("source %s: %+v, want 1 segment of 2 triples, empty delta", src.Name, src)
		}
	}

	text := getMetricsText(t, ts.URL)
	for _, want := range []string{
		"# TYPE alexd_store_checkpoint_seconds gauge",
		"# TYPE alexd_snapshot_load_seconds gauge",
		"alexd_snapshot_load_seconds 1.25",
		"alexd_store_checkpoints_total 1",
		"alexd_store_errors_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestMemBackendHealthz: without a store set configured the health
// endpoint reports the in-memory backend and no store sources.
func TestMemBackendHealthz(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	_, ts, _ := newTestServer(t, sys, dict, sources, Config{})
	h := getHealth(t, ts.URL)
	if h.Store.Backend != "mem" || h.Store.Generation != 0 || len(h.Store.Sources) != 0 {
		t.Fatalf("mem healthz store section: %+v", h.Store)
	}
}

// TestServerStoreCheckpointSkipsWhenClean is the regression test for
// the O(delta) checkpoint contract at the serving layer: feedback
// episodes do not mutate triples, so once the store is compacted the
// per-episode store checkpoints must not produce a single new segment,
// delta or manifest file — the directory stays byte-for-byte
// untouched. Dirtying the delta afterwards proves the skip is not
// vacuous.
func TestServerStoreCheckpointSkipsWhenClean(t *testing.T) {
	dir := t.TempDir()
	dict, sources, sys, set, _ := diskWorld(t, nil, dir)
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen := set.Generation()
	before := storeDirState(t, dir)

	cfg := Config{
		EpisodeSize:     1,
		FlushInterval:   time.Hour,
		CheckpointEvery: 1,
		Stores:          set,
	}
	s, ts, _ := newTestServer(t, sys, dict, sources, cfg)
	for i, req := range feedbackScript(3) {
		if code := postFeedback(t, ts.URL, req); code != http.StatusAccepted {
			t.Fatalf("feedback %d: status %d", i, code)
		}
	}
	waitForSnapshotEpisode(t, s, 3)
	if got := storeDirState(t, dir); got != before {
		t.Fatalf("clean store checkpoints rewrote files:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if set.Generation() != gen {
		t.Fatalf("generation moved %d -> %d with an empty delta", gen, set.Generation())
	}
	if n := s.metrics.storeCheckpoints.Value(); n != 0 {
		t.Fatalf("clean episodes wrote %d store checkpoints", n)
	}

	// A real delta write makes the next episode's checkpoint advance the
	// generation — the skip above was the clean path, not a dead path.
	// Store mutation is single-writer, so quiesce the serving writer
	// before dirtying the delta from this goroutine, then serve again.
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	set.Dict().Intern(rdf.IRI("http://ds1/late"))
	set.Source("ds1").InsertIDs(1, 2, 3)
	_, ts2, _ := newTestServer(t, sys, dict, sources, cfg)
	if code := postFeedback(t, ts2.URL, feedbackScript(1)[0]); code != http.StatusAccepted {
		t.Fatal("dirty-epoch feedback rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for set.Generation() == gen {
		if time.Now().After(deadline) {
			t.Fatal("dirty store never checkpointed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashDuringStoreCompaction cuts power in the middle of a segment
// compaction (the rename that would commit the new segment fails, then
// the process dies) and requires both halves of the durability
// contract: the reopened store falls back to the previous segment
// generation (the torn compaction is invisible), and the engine
// journal still replays every acknowledged feedback item, matching an
// uninterrupted twin run link for link.
func TestCrashDuringStoreCompaction(t *testing.T) {
	ffs := faultfs.New(nil)
	storeDir, dataDir := t.TempDir(), t.TempDir()
	dict, sources, sys, set, _ := diskWorld(t, ffs, storeDir)
	// Durable baseline: one compacted generation on disk.
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen := set.Generation()
	baseline := sources[0].Graph.Size()

	cfg := Config{
		EpisodeSize:     1,
		FlushInterval:   time.Hour,
		CheckpointEvery: 1,
		DataDir:         dataDir,
		FS:              ffs,
		Stores:          set,
		DrainTimeout:    5 * time.Second,
	}
	s, err := New(sys, dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// Ack a prefix of feedback while the store is clean, one episode at
	// a time, each through to its journal checkpoint: that is the last
	// thing the writer does after an episode (the snapshot is published
	// before it compacts and checkpoints the store), and with nothing
	// queued behind the item it is never skipped.
	script := feedbackScript(5)
	for i := 0; i < 4; i++ {
		if code := postFeedback(t, ts.URL, script[i]); code != http.StatusAccepted {
			t.Fatalf("feedback %d: status %d", i, code)
		}
		waitForCheckpoints(t, s, i+1)
	}

	// The writer is idle, so this goroutine may stand in for the
	// store's single writer (rdf.Dict and the delta are not safe for
	// concurrent mutation, and alexd never mutates them while serving).
	// Dirty the store (an inert triple on a fresh subject, so link
	// inference is unaffected), then fail every rename: the compaction
	// triggered by the next episode tears before its commit point.
	stray := set.Dict().Intern(rdf.IRI("http://ds1/stray"))
	set.Source("ds1").InsertIDs(stray, 1, 1)
	ffs.FailRenames(true)
	if code := postFeedback(t, ts.URL, script[4]); code != http.StatusAccepted {
		t.Fatalf("final feedback: status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.storeErrors.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("torn compaction never surfaced as a store error")
		}
		time.Sleep(time.Millisecond)
	}
	// The torn compaction must not corrupt the serving view: the store
	// still answers with every triple including the delta.
	if got := sources[0].Graph.Size(); got != baseline+1 {
		t.Fatalf("post-tear in-memory size = %d, want %d", got, baseline+1)
	}

	// Power cut.
	ts.Close()
	s.abort()
	s.Close()   //nolint:errcheck // releases the journal fd
	set.Close() //nolint:errcheck // drops the mmaps of the dead process

	// Restart over the same disk. The store opens at the pre-crash
	// generation — the torn segment and manifest are ignored and swept.
	ffs.Revive()
	set2, err := store.Open(storeDir, store.Options{FS: ffs, Meta: "tiny"})
	if err != nil {
		t.Fatalf("reopen after torn compaction: %v", err)
	}
	defer set2.Close()
	if set2.Generation() != gen {
		t.Fatalf("reopened generation %d, want pre-crash %d", set2.Generation(), gen)
	}
	r1, r2 := set2.Source("ds1"), set2.Source("ds2")
	if r1 == nil || r2 == nil {
		t.Fatal("reopened store lost a source")
	}
	if got := r1.Size(); got != baseline {
		t.Fatalf("reopened ds1 size = %d, want pre-tear %d", got, baseline)
	}

	// The journal replays all five acked items into a fresh engine over
	// the reopened store; the result matches an uninterrupted run.
	initial, ok := set2.InitialLinks()
	if !ok {
		t.Fatal("reopened store lost its initial links")
	}
	sys2 := core.New(r1, r2, set2.Entities("ds1"), set2.Entities("ds2"), initial, core.DefaultConfig())
	sources2 := []federation.Source{{Name: "ds1", Graph: r1}, {Name: "ds2", Graph: r2}}
	cfg2 := cfg
	cfg2.Stores = set2
	rec, err := New(sys2, set2.Dict(), sources2, cfg2)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	st := rec.Recovery()
	if int(st.CheckpointSeq)+st.Replayed < len(script) {
		t.Fatalf("recovery covered %d+%d records, %d were acked", st.CheckpointSeq, st.Replayed, len(script))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	wantLinks, _ := runTwin(t, script)
	gotLinks := linkIRIs(set2.Dict(), rec.Snapshot().Links)
	if fmt.Sprint(gotLinks) != fmt.Sprint(wantLinks) {
		t.Fatalf("recovered links diverge:\n got %v\nwant %v", gotLinks, wantLinks)
	}
}
