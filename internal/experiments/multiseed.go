package experiments

import (
	"fmt"
	"math"
	"strings"

	"alex/internal/eval"
	"alex/internal/synth"
)

// SeedStats aggregates a metric over runs with different random seeds.
type SeedStats struct {
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	N    int
}

func newSeedStats(xs []float64) SeedStats {
	st := SeedStats{N: len(xs)}
	if len(xs) == 0 {
		return st
	}
	st.Min, st.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < st.Min {
			st.Min = x
		}
		if x > st.Max {
			st.Max = x
		}
	}
	st.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		v := 0.0
		for _, x := range xs {
			d := x - st.Mean
			v += d * d
		}
		st.Std = math.Sqrt(v / float64(len(xs)-1))
	}
	return st
}

func (s SeedStats) String() string {
	return fmt.Sprintf("%.3f ± %.3f (min %.3f, max %.3f, n=%d)", s.Mean, s.Std, s.Min, s.Max, s.N)
}

// MultiSeedResult reports final-quality statistics over several seeds.
// The paper's figures are single runs; this quantifies how much of the
// trajectory is seed luck.
type MultiSeedResult struct {
	Profile  string
	F1       SeedStats
	Recall   SeedStats
	Episodes SeedStats
	Runs     []*QualityRun
}

// RunMultiSeed runs a profile with n different oracle/driver seeds.
func RunMultiSeed(profileName string, opts Options, n int) (*MultiSeedResult, error) {
	if n < 1 {
		n = 3
	}
	res := &MultiSeedResult{Profile: profileName}
	var f1s, recalls, eps []float64
	for i := 0; i < n; i++ {
		o := opts
		o.fill()
		o.Seed = o.Seed + int64(i)*1000
		prof, ok := synth.ProfileByName(profileName)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown profile %q", profileName)
		}
		if o.Scale != 1 {
			prof = prof.Scale(o.Scale)
		}
		// Vary the system seed too, so partition RNG streams differ.
		prof.Seed += int64(i) * 7777
		run, err := RunQualityProfile(prof, o)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, run)
		f1s = append(f1s, run.Final.F1)
		recalls = append(recalls, run.Final.Recall)
		eps = append(eps, float64(run.Result.Episodes))
	}
	res.F1 = newSeedStats(f1s)
	res.Recall = newSeedStats(recalls)
	res.Episodes = newSeedStats(eps)
	return res, nil
}

// Report renders the multi-seed statistics.
func (r *MultiSeedResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s over %d seeds\n", r.Profile, r.F1.N)
	fmt.Fprintf(&b, "final F-measure : %v\n", r.F1)
	fmt.Fprintf(&b, "final recall    : %v\n", r.Recall)
	fmt.Fprintf(&b, "episodes        : %v\n", r.Episodes)
	return b.String()
}

// SummaryRow condenses one profile's quality run for the all-pairs table.
type SummaryRow struct {
	Profile    string
	Initial    eval.Metrics // PARIS's links
	Final      eval.Metrics // ALEX's links after the run
	Episodes   int
	Relaxed    int
	Discovered int
}

// Summary runs every built-in profile once and tabulates initial vs
// final quality — the one-screen version of Figures 2-4 and 8.
func Summary(opts Options) ([]SummaryRow, error) {
	var rows []SummaryRow
	for _, p := range synth.Profiles() {
		if p.Skewed {
			continue // benchmark-only stress profile, not part of the paper's figures
		}
		run, err := RunQuality(p.Name, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SummaryRow{
			Profile:    p.Name,
			Initial:    run.Initial,
			Final:      run.Final,
			Episodes:   run.Result.Episodes,
			Relaxed:    run.Result.RelaxedEpisode,
			Discovered: run.Discovered,
		})
	}
	return rows, nil
}

// FormatSummary renders the all-pairs table.
func FormatSummary(rows []SummaryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-18s %-24s %-9s %-8s %s\n", "pair", "initial (PARIS)", "final (ALEX)", "episodes", "relaxed", "discovered")
	for _, r := range rows {
		initial := fmt.Sprintf("P=%.2f R=%.2f", r.Initial.Precision, r.Initial.Recall)
		final := fmt.Sprintf("P=%.2f R=%.2f F=%.2f", r.Final.Precision, r.Final.Recall, r.Final.F1)
		fmt.Fprintf(&b, "%-22s %-18s %-24s %-9d %-8d %d\n", r.Profile, initial, final, r.Episodes, r.Relaxed, r.Discovered)
	}
	return b.String()
}
