// Command alexd serves ALEX over HTTP: federated SPARQL queries with
// sameAs provenance, answer-level feedback that drives the exploration
// loop, the published candidate link set, health and Prometheus
// metrics. It is the long-lived serving layer for the interaction model
// of the paper's §3.2 — many users querying and giving feedback
// concurrently while one writer runs episodes.
//
// Serve a synthetic dataset pair (self-contained demo):
//
//	alexd -profile dbpedia-drugbank -addr :8080
//
// Serve real N-Triples datasets with initial links:
//
//	alexd -ds1 a.nt -ds2 b.nt -links links.nt -addr :8080
//
// Serve as shard 0 of a three-shard fleet (see README "Fleet
// deployment"; every shard gets the SAME -fleet list and data flags):
//
//	alexd -profile dbpedia-drugbank -addr :8081 \
//	  -shard-id 0 -fleet localhost:8081,localhost:8082,localhost:8083
//
// In fleet mode the shard loads the full dataset pair, runs the linker
// over all of it, then keeps only the dataset-1 entities (and initial
// links) its hash range owns; replication backfills the rest so reads
// stay full. Writes for entities it does not own are refused with 400 —
// front the fleet with alexrouter.
//
// The read path has one setting, -plan-cache; no flag chooses a join
// order (every cached plan learns its own from the row counts its
// executions observe), none spreads a query over goroutines (it runs on
// its handler's, and stops at -query-timeout) and none tunes source
// breakers (the two sources are local stores, which cannot fail).
//
// Endpoints: POST /query, POST /feedback, GET /links, GET /healthz,
// GET /metrics. See the README "Serving" section for curl examples.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"alex/internal/cluster"
	"alex/internal/core"
	"alex/internal/eval"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/pprofserve"
	"alex/internal/rdf"
	"alex/internal/server"
	"alex/internal/store"
	"alex/internal/synth"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	profile := flag.String("profile", "", "serve a synthetic dataset pair (see synthgen -list)")
	scale := flag.Float64("scale", 1.0, "entity-count scale factor for -profile")
	ds1Path := flag.String("ds1", "", "N-Triples file of dataset 1")
	ds2Path := flag.String("ds2", "", "N-Triples file of dataset 2")
	linksPath := flag.String("links", "", "N-Triples file of initial owl:sameAs links (default: run the PARIS linker)")
	partitions := flag.Int("partitions", 0, "ALEX partitions (0 = profile default or 1)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (off when empty)")
	episodeSize := flag.Int("episode-size", 100, "link-level feedback items per serving episode")
	queueSize := flag.Int("queue", 1024, "feedback queue capacity (full queue -> 429)")
	flush := flag.Duration("flush", 250*time.Millisecond, "finish a partial episode after this much idle time")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "per-request query deadline (the evaluation stops at it; the client gets 504)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "shutdown budget for draining feedback")
	dataDir := flag.String("data", "", "durability directory (feedback journal + checkpoints); empty disables durability")
	checkpointEvery := flag.Int("checkpoint-every", 16, "episodes between state checkpoints (with -data)")
	storeBackend := flag.String("store", "mem", "triple store backend: mem (rebuild graphs at startup) or disk (persistent mmap'd segment store under <data>/store; requires -data)")
	planCache := flag.Int("plan-cache", 0, "compiled query plans kept in the LRU cache (0 = default)")
	maxQueries := flag.Int("max-queries", 0, "concurrent /query evaluations admitted (0 = unlimited; excess waits, then 503)")
	shardID := flag.Int("shard-id", -1, "this shard's ID within -fleet (-1 = standalone)")
	fleetList := flag.String("fleet", "", "comma-separated addresses of ALL fleet shards in shard-ID order (requires -shard-id)")
	replicateEvery := flag.Duration("replicate-every", 2*time.Second, "fleet anti-entropy pull interval (with -fleet)")
	routersList := flag.String("routers", "", "comma-separated router addresses to push health transitions to (with -fleet)")
	flag.Parse()

	if addr, err := pprofserve.Start(*pprofAddr); err != nil {
		fatal(err)
	} else if addr != "" {
		log.Printf("pprof on http://%s/debug/pprof/", addr)
	}

	if (*profile == "") == (*ds1Path == "" || *ds2Path == "") {
		fmt.Fprintln(os.Stderr, "alexd: exactly one of -profile or (-ds1 and -ds2) is required")
		flag.Usage()
		os.Exit(2)
	}
	switch *storeBackend {
	case "mem", "disk":
	default:
		fmt.Fprintln(os.Stderr, "alexd: -store must be mem or disk")
		flag.Usage()
		os.Exit(2)
	}
	if *storeBackend == "disk" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "alexd: -store=disk requires -data (the store lives under <data>/store)")
		flag.Usage()
		os.Exit(2)
	}
	var peers []string // fleet mode: all shard addresses, ID order
	if (*fleetList == "") != (*shardID < 0) {
		fmt.Fprintln(os.Stderr, "alexd: -shard-id and -fleet must be given together")
		flag.Usage()
		os.Exit(2)
	}
	if *fleetList != "" {
		for _, a := range strings.Split(*fleetList, ",") {
			peers = append(peers, strings.TrimSpace(a))
		}
		if *shardID >= len(peers) {
			fatal(fmt.Errorf("-shard-id %d out of range for a %d-shard -fleet", *shardID, len(peers)))
		}
	}

	var (
		dict       *rdf.Dict
		e1, e2     []rdf.ID
		initial    []links.Link
		gt         links.Set // synthetic mode only, for startup logging
		sourceName = [2]string{"ds1", "ds2"}
		prof       synth.Profile
	)
	// Resolve the profile without generating anything: the warm-start
	// path needs the source names and partition default up front.
	if *profile != "" {
		p, ok := synth.ProfileByName(*profile)
		if !ok {
			fatal(fmt.Errorf("unknown profile %q", *profile))
		}
		prof = p.Scale(*scale)
		sourceName[0], sourceName[1] = prof.Name+"-1", prof.Name+"-2"
		if *partitions == 0 {
			*partitions = prof.Partitions
		}
	}

	// The serving stores: in-memory graphs, or mmap'd segments under
	// <data>/store. storeMeta stamps the store with the inputs it was
	// built from, so a warm start over different flags fails loudly
	// instead of serving another dataset's dictionary IDs.
	var (
		t1, t2 store.TripleStore
		stores *store.Set
	)
	storeMeta := fmt.Sprintf("ds1=%s ds2=%s", *ds1Path, *ds2Path)
	if *profile != "" {
		storeMeta = fmt.Sprintf("profile=%s scale=%g", *profile, *scale)
	}
	loadStart := time.Now()

	if *storeBackend == "disk" {
		dir := filepath.Join(*dataDir, "store")
		set, err := store.Open(dir, store.Options{Meta: storeMeta})
		switch {
		case err == nil:
			// Warm start: dictionary, segments, entity lists and initial
			// links all come off disk (segments mmap'd) — no N-Triples
			// parse, no synthesis, no linker run.
			stores = set
			dict = set.Dict()
			t1, t2 = set.Source(sourceName[0]), set.Source(sourceName[1])
			if t1 == nil || t2 == nil {
				fatal(fmt.Errorf("store in %s is missing source %q or %q — rebuild with a fresh -data dir", dir, sourceName[0], sourceName[1]))
			}
			// Copies: fleet partitioning filters these in place, and the
			// set's own slices must keep the full data for checkpoints.
			e1 = append([]rdf.ID(nil), set.Entities(sourceName[0])...)
			e2 = append([]rdf.ID(nil), set.Entities(sourceName[1])...)
			ls, ok := set.InitialLinks()
			if !ok {
				fatal(fmt.Errorf("store in %s has no initial links — rebuild with a fresh -data dir", dir))
			}
			initial = append([]links.Link(nil), ls...)
			if *linksPath != "" {
				log.Printf("warm start: -links ignored, serving the store's persisted initial links")
			}
			log.Printf("warm start from %s: generation %d, %d + %d triples, %d initial links in %s",
				dir, set.Generation(), t1.Size(), t2.Size(), len(initial), time.Since(loadStart).Round(time.Millisecond))
		case errors.Is(err, store.ErrNoStore):
			// First boot over this -data dir: build in memory below,
			// then persist the pair so the next start is warm.
		default:
			fatal(err)
		}
	}

	if stores == nil {
		var g1, g2 *rdf.Graph
		switch {
		case *profile != "":
			log.Printf("generating %s (scale %.2f): %d + %d entities", prof.Name, *scale, prof.N1, prof.N2)
			ds := synth.Generate(prof)
			dict, g1, g2 = ds.Dict, ds.G1, ds.G2
			e1, e2 = ds.Entities1, ds.Entities2
			gt = ds.GroundTruth
		default:
			dict = rdf.NewDict()
			g1 = loadGraph(*ds1Path, dict)
			g2 = loadGraph(*ds2Path, dict)
			e1, e2 = g1.SubjectIDs(), g2.SubjectIDs()
		}

		if *linksPath != "" {
			initial = loadLinks(*linksPath, dict).Slice()
			log.Printf("loaded %d initial links from %s", len(initial), *linksPath)
		} else {
			log.Printf("running PARIS linker for initial links...")
			start := time.Now()
			scored := paris.Link(g1, g2, e1, e2, paris.NewOptions())
			initial = make([]links.Link, len(scored))
			for i, s := range scored {
				initial[i] = s.Link
			}
			log.Printf("PARIS produced %d links in %s", len(initial), time.Since(start).Round(time.Millisecond))
		}

		t1, t2 = g1, g2
		if *storeBackend == "disk" {
			dir := filepath.Join(*dataDir, "store")
			set, err := store.Create(dir, dict, store.Options{Meta: storeMeta})
			if err != nil {
				fatal(err)
			}
			for i, g := range []*rdf.Graph{g1, g2} {
				src, err := set.AddSource(sourceName[i])
				if err != nil {
					fatal(err)
				}
				g.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
					src.InsertIDs(s, p, o)
					return true
				})
			}
			set.SetEntities(sourceName[0], e1)
			set.SetEntities(sourceName[1], e2)
			set.SetInitialLinks(initial)
			if err := set.Compact(); err != nil {
				fatal(err)
			}
			stores = set
			t1, t2 = set.Source(sourceName[0]), set.Source(sourceName[1])
			log.Printf("segment store built in %s: generation %d (the next start over this -data dir is a warm mmap open)", dir, set.Generation())
		}
	}
	if gt != nil {
		log.Printf("initial quality vs ground truth: %v", eval.Compute(links.NewSet(initial...), gt))
	}
	storeLoadSeconds := time.Since(loadStart).Seconds()

	// Fleet partitioning: the linker saw the full data above; now keep
	// only the dataset-1 entities and links this shard's range owns.
	var fleetCfg *server.FleetConfig
	if len(peers) > 0 {
		ranges := cluster.FleetRanges(len(peers))
		own := ranges[*shardID]
		allE1, allInit := len(e1), len(initial)
		kept := e1[:0]
		for _, e := range e1 {
			if own.ContainsIRI(dict.Term(e).Value) {
				kept = append(kept, e)
			}
		}
		e1 = kept
		keptLinks := initial[:0]
		for _, l := range initial {
			if cluster.OwnerOf(ranges, dict.Term(l.E1).Value) == *shardID {
				keptLinks = append(keptLinks, l)
			}
		}
		initial = keptLinks
		var routers []string
		if *routersList != "" {
			for _, a := range strings.Split(*routersList, ",") {
				routers = append(routers, strings.TrimSpace(a))
			}
		}
		fleetCfg = &server.FleetConfig{
			ShardID:        *shardID,
			Shards:         len(peers),
			ReplicateEvery: *replicateEvery,
			Routers:        routers,
		}
		log.Printf("shard %d/%d owns range %s: %d/%d entities, %d/%d initial links",
			*shardID, len(peers), own, len(e1), allE1, len(initial), allInit)
	}

	cfg := core.DefaultConfig()
	if *partitions > 0 {
		cfg.Partitions = *partitions
	}
	log.Printf("building ALEX system (%d partitions)...", cfg.Partitions)
	buildStart := time.Now()
	sys := core.New(t1, t2, e1, e2, initial, cfg)
	kept, total := sys.SpaceSize()
	log.Printf("feature space: %d of %d pairs kept at θ=%.2f in %.1fs",
		kept, total, cfg.Theta, time.Since(buildStart).Seconds())

	srv, err := server.New(sys, dict, []federation.Source{
		{Name: sourceName[0], Graph: t1},
		{Name: sourceName[1], Graph: t2},
	}, server.Config{
		EpisodeSize:          *episodeSize,
		QueueSize:            *queueSize,
		FlushInterval:        *flush,
		QueryTimeout:         *queryTimeout,
		DrainTimeout:         *drainTimeout,
		DataDir:              *dataDir,
		CheckpointEvery:      *checkpointEvery,
		Stores:               stores,
		StoreLoadSeconds:     storeLoadSeconds,
		PlanCacheSize:        *planCache,
		MaxConcurrentQueries: *maxQueries,
		Fleet:                fleetCfg,
	})
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		rec := srv.Recovery()
		log.Printf("durability on in %s: recovered checkpoint seq %d, replayed %d journal records",
			*dataDir, rec.CheckpointSeq, rec.Replayed)
	}
	if fleetCfg != nil {
		// Peers may still be starting; replication retries on its
		// interval, so a one-shot registration here is enough.
		if err := srv.SetPeers(peers); err != nil {
			fatal(err)
		}
		log.Printf("fleet peers registered: %s (replicate every %s)", strings.Join(peers, ", "), *replicateEvery)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		log.Printf("alexd serving on %s (%d candidate links)", *addr, srv.Snapshot().Links.Len())
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()

	// Graceful shutdown: stop accepting, finish in-flight requests,
	// then drain the feedback queue and close the open episode.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("alexd: http shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("alexd: %v", err)
	}
	if stores != nil {
		if _, err := stores.Checkpoint(); err != nil {
			log.Printf("alexd: final store checkpoint: %v", err)
		}
		if err := stores.Close(); err != nil {
			log.Printf("alexd: store close: %v", err)
		}
	}
	snap := srv.Snapshot()
	log.Printf("final snapshot v%d: %d links after %d episodes", snap.Version, snap.Links.Len(), snap.Episode)
	if gt != nil {
		log.Printf("final quality vs ground truth: %v", eval.Compute(snap.Links, gt))
	}
}

func loadGraph(path string, dict *rdf.Dict) *rdf.Graph {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	//lint:ignore syncerr read-only handle opened with os.Open; Close has no buffered writes to lose
	defer f.Close()
	g := rdf.NewGraphWithDict(dict)
	if _, err := rdf.ReadNTriples(bufio.NewReader(f), g); err != nil {
		fatal(err)
	}
	return g
}

func loadLinks(path string, dict *rdf.Dict) links.Set {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	//lint:ignore syncerr read-only handle opened with os.Open; Close has no buffered writes to lose
	defer f.Close()
	g := rdf.NewGraphWithDict(dict)
	if _, err := rdf.ReadNTriples(bufio.NewReader(f), g); err != nil {
		fatal(err)
	}
	out := links.NewSet()
	for _, t := range g.Triples() {
		s, ok1 := dict.Lookup(t.S)
		o, ok2 := dict.Lookup(t.O)
		if ok1 && ok2 {
			out.Add(links.Link{E1: s, E2: o})
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "alexd: %v\n", err)
	os.Exit(1)
}
