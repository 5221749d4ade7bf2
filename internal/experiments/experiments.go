// Package experiments contains one driver per table and figure of the
// paper's evaluation (§7 and appendices B-D). Each driver builds the
// synthetic dataset pair for the experiment, runs the PARIS baseline to
// obtain initial candidate links, runs ALEX with a ground-truth feedback
// oracle, and reports the same series/rows the paper plots.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"alex/internal/core"
	"alex/internal/eval"
	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/synth"
)

// QualityRun is the outcome of one quality experiment (Figures 2-4, 8).
type QualityRun struct {
	Profile     synth.Profile
	Initial     eval.Metrics
	Final       eval.Metrics
	Series      eval.Series
	Result      core.Result
	GroundTruth int
	// Discovered counts correct links in the final candidate set that
	// were not among the initial candidates (the "new links discovered
	// by ALEX" numbers in §7.2).
	Discovered int
	BuildTime  time.Duration
	RunTime    time.Duration
}

// Options tweaks a quality run.
type Options struct {
	// Scale multiplies entity counts (1.0 = full profile size).
	Scale float64
	// ErrRate is the incorrect-feedback probability (Appendix C).
	ErrRate float64
	// Mutate adjusts the ALEX config before the run.
	Mutate func(*core.Config)
	// Seed overrides the oracle/driver seed (0 = default).
	Seed int64
}

func (o *Options) fill() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

func profile(name string, opts Options) (synth.Profile, error) {
	opts.fill()
	prof, ok := synth.ProfileByName(name)
	if !ok {
		return synth.Profile{}, fmt.Errorf("experiments: unknown profile %q", name)
	}
	if opts.Scale != 1 {
		prof = prof.Scale(opts.Scale)
	}
	return prof, nil
}

// RunQuality executes the standard pipeline for one profile:
// generate → PARIS → ALEX with oracle feedback until convergence.
func RunQuality(profileName string, opts Options) (*QualityRun, error) {
	prof, err := profile(profileName, opts)
	if err != nil {
		return nil, err
	}
	return RunQualityProfile(prof, opts)
}

// RunQualityProfile is RunQuality for an explicit profile value.
func RunQualityProfile(prof synth.Profile, opts Options) (*QualityRun, error) {
	run, _ := runQuality(synth.Generate(prof), opts, nil)
	return run, nil
}

// RunQualityFiles is the same pipeline on a dataset pair and its ground
// truth read from N-Triples files (see synth.ReadFiles), under
// core.DefaultConfig seeded with opts.Seed.
func RunQualityFiles(ds1, ds2, truth string, opts Options) (*QualityRun, error) {
	opts.fill()
	ds, err := synth.ReadFiles(ds1, ds2, truth)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	ds.Profile = synth.Profile{
		Name:        ds1 + " + " + ds2,
		Description: "ground truth " + truth,
		EpisodeSize: cfg.EpisodeSize,
		Partitions:  cfg.Partitions,
		Seed:        opts.Seed,
	}
	run, _ := runQuality(ds, opts, nil)
	return run, nil
}

// runQuality runs ALEX on ds until convergence with feedback from
// judger; nil means a ground-truth oracle that errs at opts.ErrRate. It
// also returns the system, for views of its final candidate set.
func runQuality(ds *synth.Dataset, opts Options, judger feedback.Judger) (*QualityRun, *core.System) {
	opts.fill()
	w := newWorld(ds, opts)
	if judger == nil {
		judger = feedback.NewOracle(ds.GroundTruth, opts.ErrRate, rand.New(rand.NewSource(opts.Seed)))
	}
	start := time.Now()
	w.run.Result = w.sys.Run(judger, w.record)
	w.run.RunTime = time.Since(start)
	w.finish()
	return w.run, w.sys
}

// world is the setup every experiment shares: PARIS's links on ds, and ALEX built from them under
// core.DefaultConfig with the profile's episode size, partitions and
// seed, then opts.Mutate. Its run holds PARIS's quality as point 0.
type world struct {
	ds      *synth.Dataset
	cfg     core.Config
	sys     *core.System
	initial links.Set
	run     *QualityRun
}

func newWorld(ds *synth.Dataset, opts Options) *world {
	scored := paris.Link(ds.G1, ds.G2, ds.Entities1, ds.Entities2, paris.NewOptions())
	initial := make([]links.Link, len(scored))
	for i, s := range scored {
		initial[i] = s.Link
	}

	cfg := core.DefaultConfig()
	cfg.EpisodeSize = ds.Profile.EpisodeSize
	cfg.Partitions = ds.Profile.Partitions
	cfg.Seed = ds.Profile.Seed
	if opts.Mutate != nil {
		opts.Mutate(&cfg)
	}

	start := time.Now()
	sys := core.New(ds.G1, ds.G2, ds.Entities1, ds.Entities2, initial, cfg)
	run := &QualityRun{Profile: ds.Profile, GroundTruth: ds.GroundTruth.Len(), BuildTime: time.Since(start)}
	run.Initial = eval.Compute(sys.Candidates(), ds.GroundTruth)
	run.Series.Append(run.Initial)
	return &world{ds: ds, cfg: cfg, sys: sys, initial: links.NewSet(initial...), run: run}
}

// record appends the quality after one more episode to the series.
func (w *world) record(st core.EpisodeStats) {
	w.run.Series.Append(eval.Compute(w.sys.Candidates(), w.ds.GroundTruth))
	w.run.Series.NegativeFeedbackPct = append(w.run.Series.NegativeFeedbackPct, st.NegativePct())
}

// finish sets the final quality and counts the correct links ALEX
// found that PARIS had not.
func (w *world) finish() {
	w.run.Final = w.run.Series.Last()
	for l := range w.sys.Candidates() {
		if w.ds.GroundTruth.Has(l) && !w.initial.Has(l) {
			w.run.Discovered++
		}
	}
}

// Report renders the run in the format printed by cmd/alexbench.
func (r *QualityRun) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s (%s)\n", r.Profile.Name, r.Profile.Description)
	fmt.Fprintf(&b, "ground truth links: %d  episode size: %d  partitions: %d\n",
		r.GroundTruth, r.Profile.EpisodeSize, r.Profile.Partitions)
	fmt.Fprintf(&b, "initial (PARIS): %v\n", r.Initial)
	fmt.Fprintf(&b, "final   (ALEX) : %v\n", r.Final)
	fmt.Fprintf(&b, "new correct links discovered: %d\n", r.Discovered)
	fmt.Fprintf(&b, "episodes: %d (converged=%v, relaxed<5%% at episode %d)\n",
		r.Result.Episodes, r.Result.Converged, r.Result.RelaxedEpisode)
	fmt.Fprintf(&b, "build %.2fs, run %.2fs (%.2fs/episode)\n",
		r.BuildTime.Seconds(), r.RunTime.Seconds(), r.RunTime.Seconds()/maxf(1, float64(r.Result.Episodes)))
	b.WriteString(r.Series.Table())
	return b.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
