// Tests of the disk-backed segment store's integration with the
// serving layer: the /healthz backend section, the snapshot-load gauge
// on /metrics, a store directory that serving never writes, and crash
// recovery over a committed store (the journal preserves every acked
// feedback item).
package server

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"alex/internal/core"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
)

// diskWorld mirrors tinyWorld exactly — same triples, entities and
// initial links — but serves both sources from a committed disk-backed
// store.Set in dir, so store-integration tests can compare against
// the in-memory twin link for link.
func diskWorld(t *testing.T, dir string) (*rdf.Dict, []federation.Source, *core.System, *store.Set, links.Set) {
	t.Helper()
	set, err := store.Create(dir, nil, store.Options{Meta: "tiny"})
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
	set.SetEntities("ds1", []rdf.ID{id(a1), id(a2)})
	set.SetEntities("ds2", []rdf.ID{id(b1), id(b2w)})
	set.SetInitialLinks(initial.Slice())
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	sys := core.New(s1, s2, set.Entities("ds1"), set.Entities("ds2"), initial.Slice(), core.DefaultConfig())
	sources := []federation.Source{{Name: "ds1", Graph: s1}, {Name: "ds2", Graph: s2}}
	return dict, sources, sys, set, initial
}

// storeDirState fingerprints the store directory (sorted
// name:size:mtime:crc32) so tests can assert that serving leaves it
// byte-identical.
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
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, fmt.Sprintf("%s:%d:%s:%08x", fi.Name(), fi.Size(), fi.ModTime(), crc32.ChecksumIEEE(data)))
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
// /healthz reports backend "disk" with per-source triple counts, and
// /metrics exposes the snapshot-load gauge fed from
// Config.StoreLoadSeconds.
func TestStoreBackedServerHealthAndMetrics(t *testing.T) {
	dict, sources, sys, set, _ := diskWorld(t, t.TempDir())
	cfg := Config{
		EpisodeSize:      1,
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
	if code := postFeedback(t, ts.URL, feedbackScript(1)[0]); code != http.StatusAccepted {
		t.Fatalf("feedback status %d", code)
	}
	waitForSnapshotEpisode(t, s, 1)

	h := getHealth(t, ts.URL)
	if h.Store.Backend != "disk" {
		t.Fatalf("healthz backend = %q, want disk", h.Store.Backend)
	}
	if len(h.Store.Sources) != 2 {
		t.Fatalf("healthz store sources: %+v", h.Store.Sources)
	}
	for _, src := range h.Store.Sources {
		if src.Triples != 2 {
			t.Fatalf("source %s: %+v, want 2 triples", src.Name, src)
		}
	}

	text := getMetricsText(t, ts.URL)
	for _, want := range []string{
		"# TYPE alexd_snapshot_load_seconds gauge",
		"alexd_snapshot_load_seconds 1.25",
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
	if h.Store.Backend != "mem" || len(h.Store.Sources) != 0 {
		t.Fatalf("mem healthz store section: %+v", h.Store)
	}
}

// TestServingNeverWritesTheStore: a committed store is read-only to
// the server. A lookup, a scan, five episodes each followed by an
// engine checkpoint, and Close leave the store directory byte-identical
// and its dictionary as long as it was.
func TestServingNeverWritesTheStore(t *testing.T) {
	dir := t.TempDir()
	dict, sources, sys, set, _ := diskWorld(t, dir)
	before := storeDirState(t, dir)
	dictLen := set.Dict().Len()

	cfg := Config{
		EpisodeSize:     1,
		CheckpointEvery: 1,
		DataDir:         t.TempDir(),
		Stores:          set,
	}
	s, ts, client := newTestServer(t, sys, dict, sources, cfg)
	res, err := client.Query(`SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("lookup: %v rows, err %v", res, err)
	}
	res, err = client.Query(`SELECT ?s ?l WHERE { ?s <http://ds1/label> ?l . }`)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("scan: %v rows, err %v", res, err)
	}
	// One item at a time, each through to its checkpoint: with nothing
	// queued behind it, no checkpoint is skipped.
	for i, req := range feedbackScript(5) {
		if code := postFeedback(t, ts.URL, req); code != http.StatusAccepted {
			t.Fatalf("feedback %d: status %d", i, code)
		}
		waitForCheckpoints(t, s, i+1)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := storeDirState(t, dir); got != before {
		t.Fatalf("serving wrote the store:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if got := set.Dict().Len(); got != dictLen {
		t.Fatalf("serving grew the store's dictionary %d -> %d", dictLen, got)
	}
}

// TestCrashRecoveryFromDiskStore cuts power after acked feedback on a
// server over a committed store, reopens the store and replays the
// journal into a fresh engine over it: the recovered links must match
// an uninterrupted run link for link.
func TestCrashRecoveryFromDiskStore(t *testing.T) {
	storeDir, dataDir := t.TempDir(), t.TempDir()
	dict, sources, sys, set, _ := diskWorld(t, storeDir)
	cfg := Config{
		EpisodeSize:     1,
		CheckpointEvery: 2,
		DataDir:         dataDir,
		Stores:          set,
		DrainTimeout:    5 * time.Second,
	}
	s, err := New(sys, dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	script := feedbackScript(5)
	for i, req := range script {
		if code := postFeedback(t, ts.URL, req); code != http.StatusAccepted {
			t.Fatalf("feedback %d: status %d", i, code)
		}
	}

	// Power cut: no drain, no final episode or checkpoint.
	ts.Close()
	s.Abort()
	s.Close()   //nolint:errcheck // releases the journal fd
	set.Close() //nolint:errcheck // drops the mmaps of the dead process

	set2, err := store.Open(storeDir, store.Options{Meta: "tiny"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer set2.Close()
	r1, r2 := set2.Source("ds1"), set2.Source("ds2")
	initial, ok := set2.InitialLinks()
	if r1 == nil || r2 == nil || !ok {
		t.Fatal("reopened store lost a source or its initial links")
	}
	sys2 := core.New(r1, r2, set2.Entities("ds1"), set2.Entities("ds2"), initial, core.DefaultConfig())
	sources2 := []federation.Source{{Name: "ds1", Graph: r1}, {Name: "ds2", Graph: r2}}
	cfg.Stores = set2
	rec, err := New(sys2, set2.Dict(), sources2, cfg)
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
