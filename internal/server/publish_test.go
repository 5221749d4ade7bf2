package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"alex/internal/cluster"
	"alex/internal/core"
	"alex/internal/faultfs"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/rdf"
)

// checkPublication holds a published snapshot to a from-scratch build
// of the set it must serve, own ∪ peers: Links is that set, Sorted is
// Links.Slice(), Own is own in order, and the federator, its sameAs
// index included, is the one WithLinks builds over Links.
func checkPublication(t *testing.T, when string, s *Server, snap *Snapshot, own links.Set, peers links.Set) {
	t.Helper()
	want := own.Clone()
	for l := range peers {
		want.Add(l)
	}
	if d := want.SymmetricDiff(snap.Links); d != 0 || want.Len() != snap.Links.Len() {
		t.Errorf("%s: version %d serves %d links, %d of them off the engine's %d candidates ∪ %d peer links",
			when, snap.Version, snap.Links.Len(), d, own.Len(), peers.Len())
		return
	}
	if !slices.Equal(snap.Sorted, snap.Links.Slice()) {
		t.Errorf("%s: version %d's kept slice (%d links) is not Links.Slice() (%d)", when, snap.Version, len(snap.Sorted), snap.Links.Len())
	}
	if !slices.Equal(snap.Own, own.Slice()) {
		t.Errorf("%s: version %d's own slice (%d links) is not the engine's candidates in order (%d)", when, snap.Version, len(snap.Own), own.Len())
	}
	// The federators share everything but the link count and the sameAs
	// index, so this compares those, edge for edge.
	if !reflect.DeepEqual(snap.Fed, s.base.WithLinks(snap.Links)) {
		t.Errorf("%s: version %d's federator differs from WithLinks over its links", when, snap.Version)
	}
}

// publishOracle is a core.System whose Changes — called by publish, on
// the writer goroutine — first checks the snapshot the previous
// publication stored against the candidates the engine held at that
// publication's drain. Nothing else runs on the engine at that point,
// so the check is exact; the last publication is checked by final,
// once the writer has exited.
type publishOracle struct {
	*core.System
	t          *testing.T
	srv        atomic.Pointer[Server] // set once New returns
	own        links.Set              // the candidates at the last drain
	checked    int
	midEpisode int // publications with an episode open
}

func (o *publishOracle) Changes() (added, removed []links.Link) {
	if s := o.srv.Load(); s != nil && o.own != nil {
		o.check(s, "at the next publication")
		if s.w.pending > 0 {
			o.midEpisode++
		}
	}
	added, removed = o.System.Changes()
	o.own = o.System.Candidates()
	return added, removed
}

func (o *publishOracle) check(s *Server, when string) {
	o.t.Helper()
	checkPublication(o.t, when, s, s.Snapshot(), o.own, nil)
	o.checked++
}

// final checks the last publication, after the writer has exited, and
// that every publication of the server was checked.
func (o *publishOracle) final(s *Server) {
	o.t.Helper()
	o.check(s, "after the writer exited")
	if v := s.Snapshot().Version; uint64(o.checked) != v {
		o.t.Errorf("checked %d publications of %d", o.checked, v)
	}
}

// TestPublicationMatchesEngine is the oracle of publication from the
// previous snapshot: after every publication the served set, its kept
// sorted slice and its sameAs index must equal what a from-scratch
// build over the engine's candidates (∪ the peer manifests, on a fleet
// shard) gives. A disk+WAL server takes approvals that explore and
// rejections that roll back, publishes mid-episode on its flush timer
// and checkpoints; it crashes, and the server recovered over its data
// directory — checkpoint restore, journal replay, a first publication
// from the empty snapshot — serves the rest of the feedback. A fleet
// shard takes feedback and peer manifests that add and remove links.
func TestPublicationMatchesEngine(t *testing.T) {
	world := newExploringWorld()
	sources := []federation.Source{{Name: "ds1", Graph: world.ds.G1}, {Name: "ds2", Graph: world.ds.G2}}

	t.Run("disk+WAL, crash and recovery", func(t *testing.T) {
		const perEpisode, episodes = 20, 8
		script := world.script(episodes, perEpisode)
		cfg := durableCfg(t.TempDir())
		cfg.EpisodeSize = perEpisode
		cfg.CheckpointEvery = 3
		cfg.FlushInterval = time.Millisecond
		start := func() (*Server, *publishOracle) {
			o := &publishOracle{System: world.system(), t: t}
			s, err := New(o, world.ds.Dict, sources, cfg)
			if err != nil {
				t.Fatal(err)
			}
			o.srv.Store(s)
			return s, o
		}
		// feed posts one request at a time, and every fifth waits for
		// the flush timer to publish it.
		feed := func(s *Server, reqs []FeedbackRequest) {
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for i, req := range reqs {
				v := s.Snapshot().Version
				if code := postFeedback(t, ts.URL, req); code != http.StatusAccepted {
					t.Fatalf("feedback %d: status %d", i, code)
				}
				for deadline := time.Now().Add(5 * time.Second); i%5 == 2 && s.Snapshot().Version == v; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("feedback %d was not published", i)
					}
				}
			}
		}

		// The checkpoint falls at the third episode's end, reached with
		// the queue drained, and the crash one and a half episodes on.
		ckpt, crash := 3*perEpisode, 4*perEpisode+perEpisode/2
		s, o := start()
		feed(s, script[:ckpt])
		waitForCheckpoints(t, s, 1)
		feed(s, script[ckpt:crash])
		s.Abort()
		o.final(s)
		explored, rolledBack := s.metrics.exploredLinks.Value(), s.metrics.rollbacks.Value()
		s.Close() //nolint:errcheck // releases the journal fd

		rec, ro := start()
		if st := rec.Recovery(); st.CheckpointSeq == 0 || st.Replayed == 0 {
			t.Fatalf("recovery restored checkpoint seq %d and replayed %d records; the test needs both", st.CheckpointSeq, st.Replayed)
		}
		feed(rec, script[crash:])
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		ro.final(rec)
		explored += rec.metrics.exploredLinks.Value()
		rolledBack += rec.metrics.rollbacks.Value()
		if explored == 0 || rolledBack == 0 || o.midEpisode+ro.midEpisode == 0 {
			t.Fatalf("explored %d links, rolled back %d groups, published %d times mid-episode; the test needs each",
				explored, rolledBack, o.midEpisode+ro.midEpisode)
		}
	})

	t.Run("fleet shard", func(t *testing.T) {
		ranges := cluster.FleetRanges(2)
		dict := world.ds.Dict
		owner := func(l links.Link) int { return cluster.OwnerOf(ranges, dict.Term(l.E1).Value) }
		var e1 []rdf.ID
		for _, e := range world.ds.Entities1 {
			if ranges[0].ContainsIRI(dict.Term(e).Value) {
				e1 = append(e1, e)
			}
		}
		var own, theirs []links.Link
		for _, l := range world.initial {
			if owner(l) == 0 {
				own = append(own, l)
			} else {
				theirs = append(theirs, l)
			}
		}
		for _, l := range world.ds.GroundTruth.Slice() {
			if owner(l) == 1 && !slices.Contains(theirs, l) {
				theirs = append(theirs, l)
			}
		}
		ccfg := core.DefaultConfig()
		ccfg.Partitions = 2
		sys := core.New(world.ds.G1, world.ds.G2, e1, world.ds.Entities2, own, ccfg)
		// One item per episode, and no flush: every item and every
		// manifest whose links differ is one publication, which the test
		// waits for before it reads the engine or sends more.
		s, err := New(sys, dict, sources, Config{
			EpisodeSize:   1,
			FlushInterval: time.Hour,
			Fleet:         &FleetConfig{ShardID: 0, Shards: 2, ReplicateEvery: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		peer := links.NewSet() // the newest manifest accepted from shard 1
		published := func(when string, v uint64) {
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); s.Snapshot().Version < v; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: version %d was not published", when, v)
				}
			}
			if got := s.Snapshot().Version; got != v {
				t.Fatalf("%s: version %d published, want %d", when, got, v)
			}
			checkPublication(t, when, s, s.Snapshot(), sys.Candidates(), peer)
		}
		published("first publication", 1)
		version := uint64(1)
		manifests := [][]links.Link{theirs, theirs[len(theirs)/3:], theirs[len(theirs)/3:], theirs[:len(theirs)/2], nil}
		for i, ls := range manifests {
			m := cluster.SnapshotManifest{ShardID: 1, Range: ranges[1], Boot: 1, Version: uint64(i + 1)}
			for _, l := range ls {
				m.Links = append(m.Links, cluster.LinkWire{E1: dict.Term(l.E1).Value, E2: dict.Term(l.E2).Value})
			}
			changes := links.NewSet(ls...).SymmetricDiff(peer) != 0
			if ok, err := s.applyManifest(m); !ok || err != nil {
				t.Fatalf("manifest %d: applied %v, %v", i+1, ok, err)
			}
			peer = links.NewSet(ls...)
			if changes {
				version++
			}
			published(fmt.Sprintf("manifest %d", i+1), version)

			// Feedback on the shard's own candidates, between manifests.
			cands := sys.Candidates().Slice()
			for _, l := range cands[:min(3, len(cands))] {
				s.enqueue(feedbackItem{links: []links.Link{l}, positive: world.ds.GroundTruth.Has(l)})
				version++
				published(fmt.Sprintf("feedback after manifest %d", i+1), version)
			}
		}
		if len(theirs) == 0 || peer.Len() != 0 {
			t.Fatalf("shard 1 owns %d links; the manifests must add some and end with none", len(theirs))
		}
	})
}

// TestCloseReturnsJournalCloseError: Close returns the error of the
// journal's close, here a flush-on-close failure, instead of dropping
// it.
func TestCloseReturnsJournalCloseError(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	fs := faultfs.New(nil)
	cfg := durableCfg(t.TempDir())
	cfg.FS = fs
	s, err := New(sys, dict, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.FailCloses(true)
	if err := s.Close(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Close = %v, want the journal's close error", err)
	}
}

// BenchmarkEpisodeBoundary times one episode through the writer's
// path — BeginEpisode, 100 rejections of live candidates, FinishEpisode
// and the publication of the next snapshot — at 10k and 100k
// candidates. The publication builds the set and the sameAs index
// afresh, so its cost stays linear in the candidates; what no longer
// grows with them is the convergence test and the change hand-over.
// Rejections shrink the set, so the server is rebuilt, off the clock,
// once half of it is gone.
func BenchmarkEpisodeBoundary(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("candidates=%d", n), func(b *testing.B) {
			dict := rdf.NewDict()
			g1, g2 := rdf.NewGraphWithDict(dict), rdf.NewGraphWithDict(dict)
			g1.Insert(rdf.Triple{S: rdf.IRI("http://ds1/x"), P: rdf.IRI("http://ds1/p"), O: rdf.Literal("aaaa")})
			g2.Insert(rdf.Triple{S: rdf.IRI("http://ds2/y"), P: rdf.IRI("http://ds2/q"), O: rdf.Literal("zzzz")})
			initial := make([]links.Link, n)
			for i := range initial {
				initial[i] = links.Link{
					E1: dict.Intern(rdf.IRI(fmt.Sprintf("http://ds1/e%d", i))),
					E2: dict.Intern(rdf.IRI(fmt.Sprintf("http://ds2/f%d", i))),
				}
			}
			sources := []federation.Source{{Name: "ds1", Graph: g1}, {Name: "ds2", Graph: g2}}
			const perEpisode = 100
			var s *Server
			var next int
			start := func() {
				if s != nil {
					s.Close() //nolint:errcheck // no journal
				}
				sys := core.New(g1, g2, g1.SubjectIDs(), g2.SubjectIDs(), initial, core.DefaultConfig())
				var err error
				s, err = New(sys, dict, sources, Config{EpisodeSize: perEpisode, FlushInterval: time.Hour})
				if err != nil {
					b.Fatal(err)
				}
				next = 0
			}
			start()
			defer func() { s.Close() }() //nolint:errcheck // no journal
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next+perEpisode > n/2 {
					b.StopTimer()
					start()
					b.StartTimer()
				}
				// The writer goroutine idles: nothing is queued and its
				// flush timer does not fire, so this goroutine may drive
				// the writer's path.
				for j := 0; j < perEpisode; j++ {
					s.applyItem(feedbackItem{links: []links.Link{initial[next]}, positive: false})
					next++
				}
			}
			b.StopTimer()
			if v := s.Snapshot().Version; v < 2 {
				b.Fatalf("no episode published (version %d)", v)
			}
		})
	}
}
