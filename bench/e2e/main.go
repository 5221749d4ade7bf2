// Command e2e is the end-to-end benchmark of alexd: it builds a
// workload's deployment in-process the way cmd/alexd and cmd/alexrouter
// build it with default flags, drives it over loopback HTTP with one
// closed-loop client, checks every answer, and prints every metric by
// name and unit. See README.md beside this file for the definitions.
//
//	bash bench/e2e/run.sh --workload join_disk --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object; with --trace 0 it
// carries the end-to-end metrics, with --trace 1 the per-layer ones.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed golden/*.sha256
var goldenFS embed.FS

// Fixed shape of a run. The numbers are part of the benchmark's
// definition: changing one changes what every metric means.
const (
	defaultScale = 0.5 // dbpedia-opencyc: 1200 + 750 entities, ~10.6k triples, ~210 PARIS links
	setups       = 3   // set-ups per run; setup_s is their median
	minSegments  = 8
)

// quietRank is which of n measured segments' values is reported, counted
// from the best: the best quarter's last, and with few segments the
// third. What disturbs a shared host only ever slows a segment, so a low
// order statistic follows the code and not the neighbours; the segments
// below it keep a lucky one (speed readings that missed a stall) from
// setting the number: over ten runs of identical code the second best of
// join_disk's ten segments ranged over 11 %, the third over 6 %.
func quietRank(n int) int {
	if n < 12 {
		return 3
	}
	return n / 4
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	tmpRoot  string // data directories are made and removed under it
	outDir   string // trace.json lands here
	// updateGolden rewrites the workload's golden digest instead of
	// checking it (seed 1, default scale).
	updateGolden string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metricValue{v, unit} }

func main() {
	var cfg config
	var trace int
	var aa int
	flag.StringVar(&cfg.workload, "workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "op-list seed")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes trace.json")
	flag.StringVar(&cfg.updateGolden, "update-golden", "", "write the golden digest into this directory instead of checking it")
	flag.IntVar(&aa, "aa", 0, "A/A mode: two alternating sets of this many complete runs of this binary; prints the comparison as markdown")
	flag.Parse()
	cfg.trace = trace != 0
	// Everything a run writes stays under the build directory run.sh made.
	cfg.scale = defaultScale
	cfg.tmpRoot = filepath.Join(".bench_build", "tmp")
	cfg.outDir = filepath.Join(".bench_build", "e2e-out")

	if aa > 0 {
		os.Exit(runAA(aa, cfg))
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// run is one complete run of one workload. Human-readable lines go to
// log; the caller prints the result.
func run(w workload, cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// One P for the whole process, set-up included: what is measured is
	// `GOMAXPROCS=1 alexd`. With two Ps the client and the server
	// goroutines wake each other across vCPUs, and under the hypervisor
	// that hand-off moves p50 between two modes (40 and 50-58 µs on
	// lookup_mem) that last for seconds, which no order statistic over
	// segments separates; see README, "Load model" and "Limits".
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	st := hostStamp(runDir)
	st.Workload, st.Seed, st.Seconds, st.Scale, st.Traced = w.name, cfg.seed, cfg.seconds, cfg.scale, cfg.trace
	st.Segments, st.SegmentOps = w.segmentCount(cfg.seconds), w.segOps
	var calibBefore float64
	if cfg.trace {
		calibBefore = calibrate()
	}

	// Set up several times and keep the last deployment: setup_s is the
	// median, so one disturbed build does not set it.
	var d *deployment
	var setupS, setupRawS []float64
	setupSpans := map[string][]float64{}
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop after set-up %d: %w", i, err)
			}
		}
		speed, spent := alongside(func() {
			d, err = deploy(w, cfg.scale, filepath.Join(runDir, fmt.Sprintf("data-%d", i)))
		})
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		// The spins took their share of every span; the whole set-up's
		// share is what each span is shortened by. (Set-up has its own
		// yardstick: see alongside.)
		own := 1 - spent.Seconds()/d.setupS
		setupS, setupRawS = append(setupS, d.setupS*own*speed), append(setupRawS, d.setupS*own)
		for name, v := range d.spans {
			setupSpans[name] = append(setupSpans[name], v*own*speed)
		}
	}
	r := &runner{w: w, d: d, c: newClient(d.url), ops: opList(w, d.primary(), cfg.seed)}
	// The success path stops the deployment explicitly and checks the
	// error; stop is idempotent, so this only acts on error paths.
	defer func() { _ = r.d.stop() }()
	defer r.c.close()
	ref, err := r.reference()
	if err != nil {
		return nil, err
	}
	r.prelude()
	st.Ops, st.PreludeOps = len(r.ops), r.cursor
	fmt.Fprintf(log, "# %s\n", st.line())
	if r.failed == 0 {
		if err := checkGolden(w, cfg, r.preDigest); err != nil {
			r.failed++
			r.firstFailure = err.Error()
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	if !cfg.trace {
		var lat, ack []float64
		var all []segment
		for i := 0; i < st.Segments; i++ {
			lat, ack = lat[:0], ack[:0]
			all = append(all, r.runSegment(w.segOps, &lat, &ack))
		}
		for i, s := range all {
			fmt.Fprintf(log, "# segment %2d: %d ops in %.3f s, p50 %.1f us as the clock read them, speed %.3f; reported %.3f s, %.1f us\n",
				i+1, s.ops, s.wallS, s.queryP50, s.speed, s.repWallS, s.repQueryP50)
		}
		endToEnd(res, log, all, setupS, setupRawS)
		// What is left once the writer has caught up and the harness has
		// let go of its own buffers and of the snapshots it held for the
		// oracle; two collections, so that what the first one's finalizers
		// and pool clean-up released is gone too.
		if w.feedback {
			if err := r.awaitApplied(); err != nil {
				return nil, err
			}
		}
		r.replies, r.arena, r.versions, r.unindexed = nil, nil, nil, nil
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.set("mem_live_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	} else {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		lp := &layerProbe{r: r, ref: ref, res: res, runDir: runDir, segments: st.Segments, tr: newTracer()}
		if err := lp.run(setupSpans, calibBefore); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := lp.tr.write(path, st); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# %d spans written to %s\n", len(lp.tr.spans), path)
	}

	if err := r.d.stop(); err != nil { // a restart probe may have replaced the deployment's node
		return nil, fmt.Errorf("stop: %w", err)
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	if r.failed > 0 {
		fmt.Fprintf(log, "# FAILED %d of %d ops; first: %s\n", r.failed, r.attempted, r.firstFailure)
	}
	printMetrics(log, res)
	return res, nil
}

// endToEnd fills the metrics a client of alexd sees. The two request
// timings are each the quietRank-th best segment in reported units;
// allocation repeats closely enough to take over the whole measured
// stretch. The "# raw" lines are the same statistics of the same
// segments as the clock read them, which is what -aa compares the
// reported ones with.
func endToEnd(res *result, log io.Writer, all []segment, setupS, setupRawS []float64) {
	var opsPerS, p50, rawOpsPerS, rawP50 []float64
	var alloc uint64
	ops := 0
	for _, s := range all {
		opsPerS, rawOpsPerS = append(opsPerS, float64(s.ops)/s.repWallS), append(rawOpsPerS, float64(s.ops)/s.wallS)
		p50, rawP50 = append(p50, s.repQueryP50), append(rawP50, s.queryP50)
		alloc += s.allocBytes
		ops += s.ops
	}
	k := quietRank(len(all))
	res.set("setup_s", median(sortedCopy(setupS)), "s")
	res.set("ops_per_s", kthBest(opsPerS, k, true), "1/s")
	res.set("query_p50_us", kthBest(p50, k, false), "us")
	res.set("alloc_kb_per_op", float64(alloc)/1024/float64(ops), "KB")
	fmt.Fprintf(log, "# raw setup_s %v\n# raw ops_per_s %v\n# raw query_p50_us %v\n",
		median(sortedCopy(setupRawS)), kthBest(rawOpsPerS, k, true), kthBest(rawP50, k, false))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func printMetrics(log io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(log, "%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// checkGolden compares the prelude digest with the committed one. Only
// seed 1 at the default scale has a golden file; other seeds are
// covered by the per-answer reference checks alone.
func checkGolden(w workload, cfg config, got digest) error {
	if cfg.seed != 1 || cfg.scale != defaultScale {
		return nil
	}
	name := w.name + ".seed1.sha256"
	if cfg.updateGolden != "" {
		return os.WriteFile(filepath.Join(cfg.updateGolden, name), []byte(hexDigest(got)+"\n"), 0o644)
	}
	want, err := goldenFS.ReadFile("golden/" + name)
	if err != nil {
		return fmt.Errorf("no golden digest for %s (run with -update-golden bench/e2e/golden)", w.name)
	}
	if strings.TrimSpace(string(want)) != hexDigest(got) {
		return fmt.Errorf("prelude digest %s differs from golden %s", hexDigest(got), strings.TrimSpace(string(want)))
	}
	return nil
}
