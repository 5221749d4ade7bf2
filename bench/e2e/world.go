package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"alex/internal/cluster"
	"alex/internal/core"
	"alex/internal/federation"
	"alex/internal/fleet"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/server"
	"alex/internal/store"
	"alex/internal/synth"
)

// profileName is the dataset every workload serves, so numbers compare
// across deployments: the largest paper profile (Figure 8).
const profileName = "dbpedia-opencyc"

// episodeSize is alexd's -episode-size default, which startNode keeps.
var episodeSize = server.DefaultConfig().EpisodeSize

// spans accumulates named wall-clock durations in seconds; set-up spans
// of a fleet add up over its shards.
type spans map[string]float64

func (sp spans) add(name string, since time.Time) { sp[name] += time.Since(since).Seconds() }

// nodeSpec is the subset of alexd's flags a workload sets; everything
// else keeps alexd's default.
type nodeSpec struct {
	scale float64
	// dataDir set means -store=disk -data=<dataDir>: mmap'd segment store
	// plus feedback journal and checkpoints. Empty means -store=mem, no
	// durability.
	dataDir string
	// flush is alexd's -flush; 0 keeps the 250ms default.
	flush time.Duration
	// shardID/shards are alexd's -shard-id and the length of -fleet;
	// shards 0 means standalone.
	shardID, shards int
}

// node is one in-process alexd: the objects cmd/alexd's main builds, in
// the order it builds them, behind a loopback listener.
type node struct {
	spec    nodeSpec
	dict    *rdf.Dict
	g1, g2  *rdf.Graph // the generated graphs; nil on a warm start
	t1, t2  store.TripleStore
	stores  *store.Set
	initial []links.Link // all PARIS links, before fleet filtering
	truth   links.Set    // nil on a warm start (nothing was generated)
	sys     *core.System
	srv     *server.Server
	httpSrv *http.Server
	url     string
	// warm reports that the stores came off disk (store.Open succeeded).
	warm    bool
	stopped bool
}

// startNode follows cmd/alexd's main step by step for a -profile
// server: resolve the profile, warm-start the disk store or generate +
// link + build it, partition for the fleet, build the engine, build the
// server (which recovers from the journal), listen.
func startNode(spec nodeSpec, sp spans) (*node, error) {
	p, ok := synth.ProfileByName(profileName)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profileName)
	}
	prof := p.Scale(spec.scale)
	name1, name2 := prof.Name+"-1", prof.Name+"-2"
	n := &node{spec: spec}
	var e1, e2 []rdf.ID
	loadStart := time.Now()

	storeMeta := fmt.Sprintf("profile=%s scale=%g", profileName, spec.scale)
	if spec.dataDir != "" {
		set, err := store.Open(filepath.Join(spec.dataDir, "store"), store.Options{Meta: storeMeta})
		switch {
		case err == nil:
			n.warm, n.stores, n.dict = true, set, set.Dict()
			n.t1, n.t2 = set.Source(name1), set.Source(name2)
			ls, ok := set.InitialLinks()
			if n.t1 == nil || n.t2 == nil || !ok {
				return nil, fmt.Errorf("store in %s is incomplete", spec.dataDir)
			}
			e1 = append([]rdf.ID(nil), set.Entities(name1)...)
			e2 = append([]rdf.ID(nil), set.Entities(name2)...)
			n.initial = append([]links.Link(nil), ls...)
		case errors.Is(err, store.ErrNoStore):
		default:
			return nil, err
		}
	}
	if n.stores == nil {
		t0 := time.Now()
		ds := synth.Generate(prof)
		sp.add("synth.generate_s", t0)
		n.dict, n.truth = ds.Dict, ds.GroundTruth
		e1, e2 = ds.Entities1, ds.Entities2

		t0 = time.Now()
		scored := paris.Link(ds.G1, ds.G2, e1, e2, paris.NewOptions())
		n.initial = make([]links.Link, len(scored))
		for i, s := range scored {
			n.initial[i] = s.Link
		}
		sp.add("paris.link_s", t0)

		n.g1, n.g2 = ds.G1, ds.G2
		n.t1, n.t2 = ds.G1, ds.G2
		if spec.dataDir != "" {
			t0 = time.Now()
			set, err := store.Create(filepath.Join(spec.dataDir, "store"), n.dict, store.Options{Meta: storeMeta})
			if err != nil {
				return nil, err
			}
			for i, g := range []*rdf.Graph{ds.G1, ds.G2} {
				src, err := set.AddSource([]string{name1, name2}[i])
				if err != nil {
					return nil, err
				}
				g.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
					src.InsertIDs(s, p, o)
					return true
				})
			}
			set.SetEntities(name1, e1)
			set.SetEntities(name2, e2)
			set.SetInitialLinks(n.initial)
			if err := set.Compact(); err != nil {
				return nil, err
			}
			n.stores = set
			n.t1, n.t2 = set.Source(name1), set.Source(name2)
			sp.add("store.build_s", t0)
		}
	}
	storeLoad := time.Since(loadStart).Seconds()

	own := n.initial
	var fleetCfg *server.FleetConfig
	if spec.shards > 0 {
		ranges := cluster.FleetRanges(spec.shards)
		var kept []rdf.ID
		for _, e := range e1 {
			if ranges[spec.shardID].ContainsIRI(n.dict.Term(e).Value) {
				kept = append(kept, e)
			}
		}
		e1 = kept
		own = nil
		for _, l := range n.initial {
			if cluster.OwnerOf(ranges, n.dict.Term(l.E1).Value) == spec.shardID {
				own = append(own, l)
			}
		}
		fleetCfg = &server.FleetConfig{ShardID: spec.shardID, Shards: spec.shards, ReplicateEvery: 2 * time.Second}
	}

	t0 := time.Now()
	cfg := core.DefaultConfig()
	cfg.Partitions = prof.Partitions
	n.sys = core.New(n.t1, n.t2, e1, e2, own, cfg)
	sp.add("core.new_s", t0)

	t0 = time.Now()
	scfg := server.DefaultConfig() // alexd's flag defaults
	scfg.FlushInterval = spec.flush
	scfg.DataDir = spec.dataDir
	scfg.Stores = n.stores
	scfg.StoreLoadSeconds = storeLoad
	scfg.Fleet = fleetCfg
	scfg.Resilience = federation.Resilience{
		SourceTimeout: 2 * time.Second,
		Retries:       2,
		Breaker:       federation.BreakerConfig{Failures: 5, Cooldown: 5 * time.Second, Successes: 2},
	}
	srv, err := server.New(n.sys, n.dict, []federation.Source{
		{Name: name1, Graph: n.t1},
		{Name: name2, Graph: n.t2},
	}, scfg)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	n.httpSrv, n.url, err = listen(srv.Handler())
	sp.add("server.new_s", t0)
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	return n, nil
}

// listen serves h on a loopback port the way alexd's ListenAndServe
// does, and returns once the listener accepts.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed after Shutdown, which stop() waits for
	return hs, "http://" + ln.Addr().String(), nil
}

func shutdown(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx) // idle keep-alive connections only; the client is already done
}

// stop is alexd's graceful shutdown: HTTP first, then drain the writer,
// then checkpoint and close the stores. After it the engine belongs to
// the caller again.
func (n *node) stop() error {
	if n.stopped {
		return nil
	}
	n.stopped = true
	shutdown(n.httpSrv)
	err := n.srv.Close()
	return errors.Join(err, n.closeStores())
}

// crash is kill -9 as far as the journal is concerned: the writer stops
// without drain, final episode or checkpoint. Journal and store files
// are released, as the kernel would, without a final checkpoint.
func (n *node) crash() error {
	n.stopped = true
	shutdown(n.httpSrv)
	n.srv.Abort()
	err := n.srv.Close() // after Abort this only closes the journal's file
	if n.stores != nil {
		err = errors.Join(err, n.stores.Close())
	}
	return err
}

func (n *node) closeStores() error {
	if n.stores == nil {
		return nil
	}
	_, err := n.stores.Checkpoint()
	return errors.Join(err, n.stores.Close())
}

// deployment is what a workload's client talks to: one node, or three
// shards behind a router.
type deployment struct {
	nodes  []*node
	router *fleet.Router
	rhttp  *http.Server
	url    string // the address the client uses
	spans  spans
	setupS float64
}

// primary is the node the per-layer probes call into: the only node, or
// shard 0.
func (d *deployment) primary() *node { return d.nodes[0] }

func (d *deployment) stop() error {
	var errs []error
	if d.router != nil {
		shutdown(d.rhttp)
		errs = append(errs, d.router.Close())
		d.router = nil
	}
	for _, n := range d.nodes {
		errs = append(errs, n.stop())
	}
	return errors.Join(errs...)
}

// deploy builds the workload's deployment and returns once a query is
// answerable through the address the client will use; setupS is the
// time that took from nothing.
func deploy(w workload, scale float64, dataDir string) (*deployment, error) {
	start := time.Now()
	d := &deployment{spans: spans{}}
	fail := func(err error) (*deployment, error) {
		_ = d.stop()
		return nil, err
	}
	spec := nodeSpec{scale: scale, flush: w.flush}
	if w.disk {
		spec.dataDir = dataDir
	}
	if w.shards == 0 {
		n, err := startNode(spec, d.spans)
		if err != nil {
			return nil, err
		}
		d.nodes, d.url = []*node{n}, n.url
	} else {
		// Every shard generates, links and builds on its own, as three
		// alexd processes given the same flags would.
		var addrs []string
		for id := 0; id < w.shards; id++ {
			spec.shardID, spec.shards = id, w.shards
			n, err := startNode(spec, d.spans)
			if err != nil {
				return fail(err)
			}
			d.nodes = append(d.nodes, n)
			addrs = append(addrs, n.url)
		}
		for _, n := range d.nodes {
			if err := n.srv.SetPeers(addrs); err != nil {
				return fail(err)
			}
		}
		t0 := time.Now()
		// alexrouter's flag defaults.
		r, err := fleet.New(fleet.Config{
			Shards:         addrs,
			HealthInterval: time.Second,
			QueryTimeout:   10 * time.Second,
			Breaker:        federation.BreakerConfig{Failures: 5, Cooldown: 5 * time.Second, Successes: 2},
		})
		if err != nil {
			return fail(err)
		}
		d.router = r
		if d.rhttp, d.url, err = listen(r.Handler()); err != nil {
			return fail(err)
		}
		for _, url := range append(addrs, d.url) {
			if err := awaitLinks(url, len(d.primary().initial)); err != nil {
				return fail(err)
			}
		}
		d.spans.add("fleet.converge_s", t0)
	}
	// First query answerable: one lookup through the front door.
	c := newClient(d.url)
	defer c.close()
	first := lookupQuery(d.primary().dict.Term(d.primary().initial[0].E1).Value)
	if status, _, _, err := c.post("/query", queryBody(first)); err != nil || status != http.StatusOK {
		return fail(fmt.Errorf("first query: status %d, err %v", status, err))
	}
	d.setupS = time.Since(start).Seconds()
	return d, nil
}

// awaitLinks polls url's /links until it serves want links: a shard has
// pulled its peers' partitions, or the router reaches such a shard.
func awaitLinks(url string, want int) error {
	c := server.NewClient(url)
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ls, err := c.Links()
		if err == nil && ls.Count == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not converge to %d links (last: %v, err %v)", want, ls, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricsText renders a server.Registry the way /metrics does.
func metricsText(reg *server.Registry) string {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	return buf.String()
}
