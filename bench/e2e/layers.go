package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
	"alex/internal/synth"
	"alex/internal/wal"
)

// perLayerUnits names every per-layer metric and its unit; it mirrors
// BENCHMARK.json's per_layer list (a test holds them equal). A traced
// run prints all of them; one that does not apply to the workload's
// deployment (fleet.* without a fleet, the writer path without
// feedback, the join shapes without joins) prints 0.
var perLayerUnits = map[string]string{
	// set-up spans -> setup_s
	"synth.generate_s": "s", "paris.link_s": "s", "core.new_s": "s",
	"store.build_s": "s", "server.new_s": "s", "fleet.converge_s": "s",
	// query path -> query_p50_us, ops_per_s
	"client.roundtrip_us": "us", "server.handler_us": "us", "server.transport_us": "us",
	"federation.query_us": "us", "server.codec_us": "us", "sparql.parse_us": "us",
	"federation.eval_us": "us", "federation.query_cold_us": "us", "federation.query_warm_us": "us",
	"federation.query_us.sel": "us", "federation.query_us.filter": "us", "federation.query_us.wide": "us",
	"federation.query_us.mem": "us", "federation.plan_cache_hit_ratio": "ratio",
	"federation.rows_per_query": "count", "federation.links_per_row": "count", "server.resp_bytes_per_query": "bytes",
	// store -> join_disk (disk) and lookup_mem (mem)
	"store.mem.point_ns": "ns", "store.disk.point_ns": "ns",
	"store.mem.scan_ns_per_triple": "ns", "store.disk.scan_ns_per_triple": "ns",
	"store.mem.count_ns": "ns", "store.disk.count_ns": "ns",
	"store.disk.bytes_per_triple": "bytes", "store.disk.open_ms": "ms",
	// writer path -> feedback_durable
	"server.feedback_ack_p50_us": "us", "server.feedback_ack_p99_us": "us",
	"wal.append_us": "us", "wal.bytes_per_feedback": "bytes", "wal.fsyncs_per_feedback": "count", "host.fsync_probe_us": "us",
	"core.feedback_us": "us", "core.finish_episode_ms": "ms", "core.candidates_ms": "ms",
	"federation.withlinks_ms": "ms", "server.episodes": "count", "server.checkpoints": "count",
	"server.checkpoint_mean_ms": "ms", "server.journal_fsync_mean_us": "us", "server.feedback_throttled": "count",
	"core.candidate_links_final": "count", "server.restart_s": "s", "server.replayed_records": "count",
	"server.recovery_link_diff": "count",
	// fleet -> fleet3
	"fleet.handler_us": "us", "fleet.shard_roundtrip_us": "us", "fleet.router_overhead_us": "us",
	"fleet.fanout_mean": "count", "fleet.hedges": "count", "fleet.degraded": "count",
	// runtime and host
	"runtime.allocs_per_op": "count", "runtime.gc_cycles": "count", "runtime.gc_pause_ms": "ms",
	"runtime.heap_peak_mb": "MB", "host.calib_ms_before": "ms", "host.calib_ms_after": "ms",
	"bench.segment_iqr_pct": "%", "trace.overhead_pct": "%", "host.cpu_speed": "ratio",
	// demoted from end to end (README): the tail is too unsteady on this
	// sandbox to carry a bound, and on one P CPU per op is 1/ops_per_s
	"query_p99_us": "us", "cpu_us_per_op": "us",
}

// sampleOps caps how many query ops of the workload's own list each
// layer probe replays; a list with fewer queries is replayed once.
const sampleOps = 2000

// layerProbe is the traced run: it times calls into each layer's
// exported functions from outside, keeps a span per call, and derives
// the per-layer metrics.
type layerProbe struct {
	r        *runner
	ref      *federation.Federator // mem-backed reference (joins only)
	res      *result
	runDir   string
	segments int // of an untraced run of the same --seconds
	tr       *tracer
}

func (lp *layerProbe) set(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("e2e: per-layer metric " + name + " is not in perLayerUnits")
	}
	lp.res.set(name, v, unit)
}

func (lp *layerProbe) run(setupSpans map[string][]float64, calibBefore float64) error {
	for name := range perLayerUnits {
		lp.set(name, 0)
	}
	for name, vs := range setupSpans {
		lp.set(name, median(sortedCopy(vs)))
	}
	lp.set("host.calib_ms_before", calibBefore)
	if lp.r.w.feedback {
		// The prelude's episodes are in the journal and no checkpoint has
		// been taken: the one state from which recovery must reproduce the
		// crashed engine's link set exactly.
		if _, err := lp.crashAndRecover(true); err != nil {
			return err
		}
	}
	lp.mainRun()
	if lp.r.w.feedback {
		if err := lp.r.awaitApplied(); err != nil {
			return err
		}
	}
	lp.counts()
	if err := lp.queryPath(); err != nil {
		return err
	}
	if err := lp.storeProbe(); err != nil {
		return err
	}
	if lp.r.w.feedback {
		if err := lp.writerPath(); err != nil {
			return err
		}
	}
	lp.set("host.calib_ms_after", calibrate())
	return nil
}

// mainRun is the workload's own measured stretch, ops and all, with
// every second segment recording a span per op. The p50 difference
// between the two kinds is what tracing costs; the end-to-end numbers
// never come from here.
func (lp *layerProbe) mainRun() {
	r := lp.r
	var lat, ack []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var peak uint64
	var p50s, ackP50, speeds, cpuPerOp []float64
	var byKind [2][]float64 // p50 of the plain and of the span-recording segments
	ops, mallocs := 0, uint64(0)
	for i := 0; i < lp.segments; i++ {
		r.tr = nil
		if i%2 == 1 {
			r.tr = lp.tr
		}
		s := r.runSegment(r.w.segOps, &lat, &ack)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if in := ms.HeapSys - ms.HeapReleased; in > peak {
			peak = in
		}
		p50s = append(p50s, s.repQueryP50)
		byKind[i%2] = append(byKind[i%2], s.repQueryP50)
		ackP50 = append(ackP50, s.repAckP50)
		speeds = append(speeds, s.speed)
		if i%2 == 0 {
			cpuPerOp = append(cpuPerOp, s.cpuUs*s.speed/float64(s.ops))
		}
		ops += s.ops
		mallocs += s.mallocs
	}
	r.tr = nil
	runtime.ReadMemStats(&after)

	plain, traced := median(sortedCopy(byKind[0])), median(sortedCopy(byKind[1]))
	lp.set("trace.overhead_pct", 100*(traced-plain)/plain)
	lp.set("bench.segment_iqr_pct", iqrPct(p50s))
	lp.set("host.cpu_speed", median(sortedCopy(speeds)))
	lp.set("cpu_us_per_op", kthBest(cpuPerOp, quietRank(len(cpuPerOp)), false))
	sort.Float64s(lat)
	p99, _ := highPercentile(lat, 0.99)
	lp.set("query_p99_us", p99)
	if len(ack) > 0 {
		sort.Float64s(ack)
		lp.set("server.feedback_ack_p50_us", median(sortedCopy(ackP50)))
		p99, _ = highPercentile(ack, 0.99)
		lp.set("server.feedback_ack_p99_us", p99)
	}
	lp.set("runtime.allocs_per_op", float64(mallocs)/float64(ops))
	lp.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	lp.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	lp.set("runtime.heap_peak_mb", float64(peak)/(1<<20))
}

var promLine = regexp.MustCompile(`(?m)^([a-z_]+)(?:\{[^}]*\})? ([-+0-9.eE]+|NaN)$`)

// promValues parses a Prometheus text exposition into name -> value,
// summing the samples of a labelled family.
func promValues(text string) map[string]float64 {
	out := map[string]float64{}
	for _, m := range promLine.FindAllStringSubmatch(text, -1) {
		if v, err := strconv.ParseFloat(m[2], 64); err == nil {
			out[m[1]] += v
		}
	}
	return out
}

// counts reads what the prelude counted exactly and what the server's
// and router's own registries say about the run so far.
func (lp *layerProbe) counts() {
	r := lp.r
	if r.preQueries > 0 {
		lp.set("federation.rows_per_query", float64(r.preRows)/float64(r.preQueries))
		lp.set("server.resp_bytes_per_query", float64(r.preBytes)/float64(r.preQueries))
	}
	if r.preRows > 0 {
		lp.set("federation.links_per_row", float64(r.preLinks)/float64(r.preRows))
	}
	m := promValues(metricsText(r.d.primary().srv.Registry()))
	if total := m["alexd_plan_cache_hits_total"] + m["alexd_plan_cache_misses_total"]; total > 0 {
		lp.set("federation.plan_cache_hit_ratio", m["alexd_plan_cache_hits_total"]/total)
	}
	if r.w.feedback {
		lp.set("server.episodes", m["alexd_episodes_total"])
		lp.set("server.checkpoints", m["alexd_checkpoints_total"])
		if n := m["alexd_checkpoint_seconds_count"]; n > 0 {
			lp.set("server.checkpoint_mean_ms", 1e3*m["alexd_checkpoint_seconds_sum"]/n)
		}
		if n := m["alexd_journal_fsync_seconds_count"]; n > 0 {
			lp.set("server.journal_fsync_mean_us", 1e6*m["alexd_journal_fsync_seconds_sum"]/n)
			// One post, one link: posts acked by this server since it started.
			lp.set("wal.fsyncs_per_feedback", n/float64(r.sentLinks-r.sentAtStart))
		}
		lp.set("server.feedback_throttled", m["alexd_feedback_throttled_total"])
		lp.set("core.candidate_links_final", float64(r.preCandidates))
	}
	if r.d.router != nil {
		rm := promValues(metricsText(r.d.router.Registry()))
		if n := rm["alexrouter_query_fanout_count"]; n > 0 {
			lp.set("fleet.fanout_mean", rm["alexrouter_query_fanout_sum"]/n)
		}
		lp.set("fleet.hedges", rm["alexrouter_hedged_queries_total"])
		lp.set("fleet.degraded", rm["alexrouter_fleet_degraded_total"])
	}
}

// probeRounds is how often queryPath repeats its passes.
const probeRounds = 2

// layer is one call into a layer from outside; parent names the layer
// whose span it nests under.
type layer struct {
	name, parent string
	call         func(o *op) error
}

// queryVia sends an op's query through c and wants a 200.
func queryVia(c *client) func(o *op) error {
	return func(o *op) error {
		status, _, body, err := c.post("/query", o.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		return err
	}
}

// serveOnRecorder runs one request through h without a socket.
func serveOnRecorder(h http.Handler, o *op) error {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(o.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler status %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}

// queryPath replays a sample of the workload's own queries through each
// layer's entry point, outermost first: the client round trip, (router
// handler, direct shard round trip,) server handler, federated query,
// and its two halves parse and eval. Each layer is one pass over the
// whole sample in list order, so every pass meets the plan cache in the
// state the real run leaves it in: a pool inside the cache always hits,
// a cyclic list larger than the cache always misses.
func (lp *layerProbe) queryPath() error {
	r, n := lp.r, lp.r.d.primary()
	var sample []*op
	for i := 0; len(sample) < sampleOps && i < len(r.ops); i++ {
		if o := &r.ops[(r.cursor+i)%len(r.ops)]; o.isQuery() {
			sample = append(sample, o)
		}
	}
	ctx := context.Background()
	fed := n.srv.Snapshot().Fed // no feedback flows during the probe, so this stays the served snapshot
	parsed := make(map[*op]*sparql.Query, len(sample))

	layers := []layer{{name: "client.roundtrip", call: queryVia(r.c)}}
	outer := "client.roundtrip"
	if r.d.router != nil {
		direct := newClient(n.url)
		defer direct.close()
		layers = append(layers,
			layer{"fleet.handler", outer, func(o *op) error { return serveOnRecorder(r.d.router.Handler(), o) }},
			layer{"fleet.shard_roundtrip", "fleet.handler", queryVia(direct)})
		outer = "fleet.shard_roundtrip"
	}
	layers = append(layers,
		layer{"server.handler", outer, func(o *op) error { return serveOnRecorder(n.srv.Handler(), o) }},
		layer{"federation.query", "server.handler", func(o *op) error {
			_, err := fed.QueryContext(ctx, o.text)
			return err
		}},
		layer{"sparql.parse", "federation.query", func(o *op) error {
			q, err := sparql.Parse(o.text)
			parsed[o] = q
			return err
		}},
		layer{"federation.eval", "federation.query", func(o *op) error {
			_, err := fed.EvalContext(ctx, parsed[o])
			return err
		}})
	if r.w.joins {
		// How much of a join is the store: the same sample on the
		// mem-backed reference, behind a plan cache of the server's size.
		lp.ref.SetPlanCache(federation.NewPlanCache(0))
		layers = append(layers, layer{"federation.query.mem", "", func(o *op) error {
			_, err := lp.ref.QueryContext(ctx, o.text)
			return err
		}})
	}

	// Two rounds of all passes; each request keeps the faster of its two
	// spans per layer. A busy stretch of the host slows one pass of one
	// round, and would otherwise read as that layer's cost.
	byLayer := map[string][]*span{}
	for round := 0; round < probeRounds; round++ {
		for _, l := range layers {
			runtime.GC()
			// A pass of calls of a few µs is over in milliseconds: spin at
			// least 32 times in it, whatever the clock says.
			var clk cpuClock
			pass := make([]span, len(sample))
			for i, o := range sample {
				if i%(len(sample)/32+1) == 0 {
					clk.sample()
				} else {
					clk.tick()
				}
				pass[i].StartNs = lp.tr.now()
				err := l.call(o)
				pass[i].EndNs = lp.tr.now()
				if err != nil {
					return fmt.Errorf("%s probe: %w", l.name, err)
				}
			}
			speed := clk.speed()
			for i := range pass {
				pass[i].Speed = speed
				if round == 0 {
					var parent *span
					if l.parent != "" {
						parent = byLayer[l.parent][i]
					}
					byLayer[l.name] = append(byLayer[l.name], lp.tr.add(parent, l.name, i+1, pass[i]))
				} else if kept := byLayer[l.name][i]; pass[i].us() < kept.us() {
					kept.StartNs, kept.EndNs, kept.Speed = pass[i].StartNs, pass[i].EndNs, speed
				}
			}
		}
	}

	for name, metrics := range map[string][2]string{ // layer -> {total, self}
		"client.roundtrip":      {"client.roundtrip_us", "server.transport_us"},
		"server.handler":        {"server.handler_us", "server.codec_us"},
		"federation.query":      {"federation.query_us"},
		"sparql.parse":          {"sparql.parse_us"},
		"federation.eval":       {"federation.eval_us"},
		"fleet.handler":         {"fleet.handler_us"},
		"fleet.shard_roundtrip": {"fleet.shard_roundtrip_us"},
		"federation.query.mem":  {"federation.query_us.mem"},
	} {
		if byLayer[name] == nil {
			continue
		}
		total, self := lp.tr.p50(name)
		lp.set(metrics[0], total)
		if metrics[1] != "" {
			lp.set(metrics[1], self)
		}
	}
	if r.d.router != nil {
		lp.set("fleet.router_overhead_us", lp.res.Metrics["client.roundtrip_us"].Value-lp.res.Metrics["fleet.shard_roundtrip_us"].Value)
	}
	if r.w.joins { // which shape moved
		byShape := map[int][]float64{}
		for i, sp := range byLayer["federation.query"] {
			byShape[sample[i].shape] = append(byShape[sample[i].shape], sp.us())
		}
		for shape := shapeSel; shape <= shapeWide; shape++ {
			lp.set("federation.query_us."+shapeNames[shape], median(sortedCopy(byShape[shape])))
		}
	}

	// Cold against warm: a text the plan cache has never seen (trailing
	// blanks make a new cache key for the same query), then the same text
	// again at once. The gap is parse + plan.
	var cold, warm []float64
	var clk cpuClock
	for i, o := range sample[:len(sample)/4] {
		text := o.text + strings.Repeat(" ", 1+i)
		clk.tick()
		for _, into := range []*[]float64{&cold, &warm} {
			t0 := time.Now()
			if _, err := fed.QueryContext(ctx, text); err != nil {
				return fmt.Errorf("cold/warm probe: %w", err)
			}
			*into = append(*into, us(time.Since(t0)))
		}
	}
	speed := clk.speed()
	lp.set("federation.query_cold_us", speed*median(sortedCopy(cold)))
	lp.set("federation.query_warm_us", speed*median(sortedCopy(warm)))
	return nil
}

// storeProbe times the TripleStore calls the executor makes, on both
// backends over the same triples: the generated dataset-1 graph, and a
// segment store built from it, closed and reopened (so it is mmap'd
// and read through the OS page cache, as a restarted alexd's is).
func (lp *layerProbe) storeProbe() error {
	n := lp.r.d.primary()
	dir := filepath.Join(lp.runDir, "store-probe")
	set, err := store.Create(dir, n.dict, store.Options{})
	if err != nil {
		return err
	}
	src, err := set.AddSource("probe")
	if err != nil {
		return err
	}
	n.g1.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
		src.InsertIDs(s, p, o)
		return true
	})
	if err := set.Compact(); err != nil {
		return err
	}
	if err := set.Close(); err != nil {
		return err
	}
	var bytesOnDisk int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".seg") {
			bytesOnDisk += info.Size()
		}
	}
	t0 := time.Now()
	set, err = store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	lp.set("store.disk.open_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	defer set.Close() //nolint:errcheck // read-only from here on
	disk := set.Source("probe")
	lp.set("store.disk.bytes_per_triple", float64(bytesOnDisk)/float64(disk.Size()))

	label, _ := n.dict.Lookup(synth.P1Label)
	subjects := n.g1.SubjectIDs()
	for _, b := range []struct {
		name string
		ts   store.TripleStore
	}{{"mem", n.g1}, {"disk", disk}} {
		const rounds = 20
		var sink, scanned int
		// Each loop runs for milliseconds, between two spins: timed(fn) is
		// fn's duration in reported ns.
		timed := func(fn func()) float64 {
			var clk cpuClock
			clk.sample()
			t0 := time.Now()
			fn()
			d := time.Since(t0)
			clk.sample()
			return float64(d.Nanoseconds()) * clk.speed()
		}
		point := timed(func() {
			for r := 0; r < rounds; r++ {
				for _, s := range subjects {
					b.ts.ForEachMatchIDs(s, label, 0, true, true, false, func(_, _, _ rdf.ID) bool { sink++; return true })
				}
			}
		})
		scan := timed(func() {
			for r := 0; r < rounds; r++ {
				b.ts.ForEachMatchIDs(0, label, 0, false, true, false, func(_, _, _ rdf.ID) bool { scanned++; return true })
			}
		})
		count := timed(func() {
			for r := 0; r < rounds; r++ {
				for _, s := range subjects {
					sink += b.ts.CountMatch(s, 0, 0, true, false, false)
				}
			}
		})
		calls := float64(rounds * len(subjects))
		lp.set("store."+b.name+".point_ns", point/calls)
		lp.set("store."+b.name+".scan_ns_per_triple", scan/float64(scanned))
		lp.set("store."+b.name+".count_ns", count/calls)
		spinSink += uint64(sink) // keep the loops' results live
	}
	return nil
}

// p50Of times fn n times and returns the median in µs.
func p50Of(n int, fn func(i int) error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = us(time.Since(t0))
	}
	sort.Float64s(ds)
	return median(ds), nil
}

// writerPath takes the feedback path apart: what an fsync costs here,
// what a journal append adds to it, a crash and recovery of the live
// server, and — once the server is closed and the engine is the
// caller's again — the engine calls the writer goroutine makes.
func (lp *layerProbe) writerPath() error {
	r := lp.r
	var body []byte // a feedback request as journaled
	for _, o := range r.ops {
		if !o.isQuery() {
			body = o.body
			break
		}
	}

	// Raw write+fsync beside the journal: how much of an append is the
	// device. On tmpfs this is ~0; the number is the sandbox's.
	probeDir := filepath.Join(lp.runDir, "wal-probe")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(probeDir, "fsync-probe"))
	if err != nil {
		return err
	}
	fsyncUs, err := p50Of(200, func(int) error {
		if _, err := f.Write(body); err != nil {
			return err
		}
		return f.Sync()
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lp.set("host.fsync_probe_us", fsyncUs)

	log, err := wal.Open(probeDir, nil)
	if err != nil {
		return err
	}
	const appends = 200
	appendUs, err := p50Of(appends, func(int) error {
		_, err := log.Append(body)
		return err
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lp.set("wal.append_us", appendUs)
	var journalBytes int64
	entries, err := os.ReadDir(probeDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && e.Name() != "fsync-probe" {
			journalBytes += info.Size()
		}
	}
	lp.set("wal.bytes_per_feedback", float64(journalBytes)/appends)

	// Crash and recover once more, now that checkpoints exist. What the
	// recovered link set differs by is reported, not failed: see
	// crashAndRecover.
	restartS, err := lp.crashAndRecover(false)
	if err != nil {
		return err
	}
	n := r.d.primary()
	lp.set("server.restart_s", restartS)
	lp.set("server.replayed_records", float64(n.srv.Recovery().Replayed))

	// Close the recovered server; its engine is ours now. Replay five
	// episodes' worth of the workload's feedback through it directly.
	if err := r.d.stop(); err != nil {
		return err
	}
	fl := feedbackLinks(n)
	var feedbackUs, finishMs, candMs, withLinksMs []float64
	var clk cpuClock
	for ep := 0; ep < 5; ep++ {
		n.sys.BeginEpisode()
		for i := 0; i < episodeSize; i++ {
			l := fl[(ep*episodeSize+i)%len(fl)]
			clk.tick()
			t0 := time.Now()
			n.sys.Feedback(l, n.truth.Has(l))
			feedbackUs = append(feedbackUs, us(time.Since(t0)))
		}
		clk.tick()
		t0 := time.Now()
		n.sys.FinishEpisode()
		finishMs = append(finishMs, us(time.Since(t0))/1e3)
		t0 = time.Now()
		var cands links.Set = n.sys.Candidates()
		candMs = append(candMs, us(time.Since(t0))/1e3)
		t0 = time.Now()
		n.srv.Snapshot().Fed.WithLinks(cands)
		withLinksMs = append(withLinksMs, us(time.Since(t0))/1e3)
	}
	speed := clk.speed()
	lp.set("core.feedback_us", speed*median(sortedCopy(feedbackUs)))
	lp.set("core.finish_episode_ms", speed*median(sortedCopy(finishMs)))
	lp.set("core.candidates_ms", speed*median(sortedCopy(candMs)))
	lp.set("federation.withlinks_ms", speed*median(sortedCopy(withLinksMs)))
	return nil
}

// crashAndRecover aborts the live server once the writer has caught up,
// warm-starts a new one over the same data directory, puts it in the
// deployment's place and returns how long the restart took. The
// recovered server must cover every acked record. With journalOnly no
// checkpoint may have been taken yet, and the recovered server must
// publish the very link set the crashed engine held. After a restored
// checkpoint the two can differ (the engine's exploration RNG position
// is not part of a checkpoint, so replay explores differently from
// there on); that difference is reported as server.recovery_link_diff
// and not failed — README, Findings.
func (lp *layerProbe) crashAndRecover(journalOnly bool) (restartS float64, err error) {
	r, n := lp.r, lp.r.d.primary()
	if err := lp.r.awaitApplied(); err != nil {
		return 0, err
	}
	r.c.close()
	if err := n.crash(); err != nil {
		return 0, err
	}
	atCrash := n.sys.Candidates()
	var n2 *node
	speed, spent := alongside(func() {
		t0 := time.Now()
		n2, err = startNode(n.spec, spans{})
		restartS = time.Since(t0).Seconds()
	})
	restartS -= spent.Seconds()
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	// What only generation gives; IDs compare across the restart because
	// the store persisted n's dictionary and n2 loaded it.
	n2.g1, n2.g2, n2.truth = n.g1, n.g2, n.truth
	r.d.nodes[0], r.d.url, r.c.base = n2, n2.url, n2.url
	r.resetSnapshots()
	r.sentAtStart = r.sentLinks
	r.appliedAtStart = promValues(metricsText(n2.srv.Registry()))["alexd_feedback_links_total"]
	if !n2.warm {
		return 0, fmt.Errorf("restart did not warm-start from %s", n.spec.dataDir)
	}
	rec := n2.srv.Recovery()
	// One record per acked post, one link per post.
	if covered := int(rec.CheckpointSeq) + rec.Replayed; covered < r.sentLinks {
		r.failed++
		r.firstFailure = fmt.Sprintf("recovery covered %d of %d acked feedback records", covered, r.sentLinks)
	}
	diff := atCrash.SymmetricDiff(n2.srv.Snapshot().Links)
	switch {
	case !journalOnly:
		lp.set("server.recovery_link_diff", float64(diff))
	case rec.CheckpointSeq != 0:
		return 0, fmt.Errorf("a checkpoint (seq %d) exists after the prelude: the journal-only recovery check did not run", rec.CheckpointSeq)
	case diff != 0:
		r.failed++
		r.firstFailure = fmt.Sprintf("journal-only recovery differs from the link set at the crash in %d links", diff)
	}
	return restartS * speed, nil
}
