package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"alex/internal/core"
	"alex/internal/eval"
	"alex/internal/feature"
	"alex/internal/feedback"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/synth"
)

// Table1Row is one dataset of Table 1.
type Table1Row struct {
	Profile   string
	Field     string
	Triples1  int
	Triples2  int
	Entities1 int
	Entities2 int
	GTLinks   int
}

// Table1 reproduces the dataset inventory (Table 1): the synthetic
// stand-ins for each dataset pair with their triple and entity counts.
func Table1(scale float64) []Table1Row {
	if scale == 0 {
		scale = 1
	}
	var rows []Table1Row
	for _, p := range synth.Profiles() {
		if p.Skewed {
			continue // benchmark-only stress profile, not a paper dataset pair
		}
		prof := p
		if scale != 1 {
			prof = prof.Scale(scale)
		}
		ds := synth.Generate(prof)
		rows = append(rows, Table1Row{
			Profile:   p.Name,
			Field:     p.Description,
			Triples1:  ds.G1.Size(),
			Triples2:  ds.G2.Size(),
			Entities1: len(ds.Entities1),
			Entities2: len(ds.Entities2),
			GTLinks:   ds.GroundTruth.Len(),
		})
	}
	return rows
}

// FormatTable1 renders Table 1 rows.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-10s %-10s %-10s %-10s %-8s\n", "pair", "triples1", "triples2", "entities1", "entities2", "gt-links")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-10d %-10d %-10d %-10d %-8d\n", r.Profile, r.Triples1, r.Triples2, r.Entities1, r.Entities2, r.GTLinks)
	}
	return b.String()
}

// Fig5Result reports the search-space filtering experiment (Figure 5):
// the unfiltered cross product of the first partition against the whole
// of dataset 2, the θ-filtered space, and the ground-truth share.
type Fig5Result struct {
	Profile              string
	TotalPairs           int // Figure 5a left bar
	FilteredPairs        int // Figure 5a right bar / Figure 5b left bar
	GroundTruth          int // Figure 5b right bar (links with E1 in partition 0)
	ReductionPct         float64
	GTShareOfFilteredPct float64
}

// Fig5 measures the filtering optimization on the first partition of a
// profile (§6.1, Figures 5a and 5b).
func Fig5(profileName string, scale float64) (*Fig5Result, error) {
	prof, err := profile(profileName, Options{Scale: scale})
	if err != nil {
		return nil, err
	}
	ds := synth.Generate(prof)

	cfg := core.DefaultConfig()

	// Partition 0 only, as in the paper's Figure 5.
	part0 := feature.PartitionRoundRobin(ds.Entities1, prof.Partitions)[0]
	inPart := map[rdf.ID]bool{}
	for _, e := range part0 {
		inPart[e] = true
	}
	gt := 0
	for l := range ds.GroundTruth {
		if inPart[l.E1] {
			gt++
		}
	}

	sp := feature.Build(ds.G1, ds.G2, part0, ds.Entities2, feature.Options{Theta: cfg.Theta})
	res := &Fig5Result{
		Profile:       prof.Name,
		TotalPairs:    sp.TotalPairs,
		FilteredPairs: sp.Len(),
		GroundTruth:   gt,
	}
	if res.TotalPairs > 0 {
		res.ReductionPct = 100 * (1 - float64(res.FilteredPairs)/float64(res.TotalPairs))
	}
	if res.FilteredPairs > 0 {
		res.GTShareOfFilteredPct = 100 * float64(res.GroundTruth) / float64(res.FilteredPairs)
	}
	return res, nil
}

// Report renders the Fig5 result.
func (r *Fig5Result) Report() string {
	return fmt.Sprintf(
		"profile %s, partition 0\n"+
			"total possible links : %d\n"+
			"filtered space       : %d (%.1f%% reduction)   [Figure 5a]\n"+
			"ground truth links   : %d (%.2f%% of filtered) [Figure 5b]\n",
		r.Profile, r.TotalPairs, r.FilteredPairs, r.ReductionPct, r.GroundTruth, r.GTShareOfFilteredPct)
}

// ComparisonRun holds two labelled quality runs on the same profile,
// used by the blacklist (Fig 6), rollback (Fig 7), incorrect feedback
// (Fig 9) and ablation experiments.
type ComparisonRun struct {
	Profile string
	Labels  [2]string
	Runs    [2]*QualityRun
}

// CommonEpisodes returns the episode span shared by both runs; means
// over this prefix are comparable even when one configuration runs much
// longer than the other.
func (c *ComparisonRun) CommonEpisodes() int {
	n := len(c.Runs[0].Series.NegativeFeedbackPct)
	if m := len(c.Runs[1].Series.NegativeFeedbackPct); m < n {
		n = m
	}
	return n
}

// MeanNegativePct returns the mean negative-feedback percentage of run
// i over the common episode prefix.
func (c *ComparisonRun) MeanNegativePct(i int) float64 {
	n := c.CommonEpisodes()
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, v := range c.Runs[i].Series.NegativeFeedbackPct[:n] {
		s += v
	}
	return s / float64(n)
}

// Report renders both series side by side.
func (c *ComparisonRun) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s: %s vs %s\n\n", c.Profile, c.Labels[0], c.Labels[1])
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&b, "--- %s ---\n", c.Labels[i])
		fmt.Fprintf(&b, "final: %v after %d episodes (converged=%v)\n",
			c.Runs[i].Final, c.Runs[i].Result.Episodes, c.Runs[i].Result.Converged)
		fmt.Fprintf(&b, "mean negative feedback over first %d episodes: %.1f%%\n",
			c.CommonEpisodes(), c.MeanNegativePct(i))
		b.WriteString(c.Runs[i].Series.Table())
		b.WriteString("\n")
	}
	return b.String()
}

// Fig6Blacklist compares ALEX with and without the blacklist
// optimization on a profile (Figures 6a and 6b): similar F-measure, but
// markedly more negative feedback without the blacklist (margin 0).
func Fig6Blacklist(profileName string, opts Options) (*ComparisonRun, error) {
	with, err := RunQuality(profileName, opts)
	if err != nil {
		return nil, err
	}
	without, err := RunQuality(profileName, withMutate(opts, func(c *core.Config) { c.BlacklistMargin = 0 }))
	if err != nil {
		return nil, err
	}
	return &ComparisonRun{Profile: profileName, Labels: [2]string{"with blacklist", "without blacklist"}, Runs: [2]*QualityRun{with, without}}, nil
}

// Fig7Result captures the rollback experiment (Figure 7).
type Fig7Result struct {
	Profile string
	// WithRollback is the default configuration's run (cf. Figure 2a).
	WithRollback *QualityRun
	// WithoutRollback shows the collapse (Figure 7a).
	WithoutRollback *QualityRun
	// PartitionFinalF is the final F-measure of each partition without
	// rollback: some recover, some do not (Figures 7b and 7c).
	PartitionFinalF []float64
}

// Fig7Rollback runs the rollback on/off comparison; off is a rollback
// threshold of 0. The episode size is quartered relative to the profile
// default: the figure's phenomenon — wrong decisions flooding more
// links than link-by-link negative feedback can remove — appears when
// exploration floods outpace the feedback budget, which is the regime
// of the paper's full-size data. An explicit opts.Mutate can override
// the episode size.
func Fig7Rollback(profileName string, opts Options) (*Fig7Result, error) {
	opts = withDefault(opts, func(c *core.Config) {
		if c.EpisodeSize >= 4 {
			c.EpisodeSize /= 4
		}
	})
	with, err := RunQuality(profileName, opts)
	if err != nil {
		return nil, err
	}
	prof, err := profile(profileName, opts)
	if err != nil {
		return nil, err
	}
	ds := synth.Generate(prof)
	without, sys := runQuality(ds, withMutate(opts, func(c *core.Config) { c.RollbackThreshold = 0 }), nil)

	res := &Fig7Result{Profile: profileName, WithRollback: with, WithoutRollback: without}
	// Per-partition final quality (Figures 7b/7c): partition GT =
	// ground-truth links rooted at that partition's entities, placed as
	// the system places them.
	partOf := map[rdf.ID]int{}
	for pi, ents := range feature.PartitionRoundRobin(ds.Entities1, sys.Partitions()) {
		for _, e := range ents {
			partOf[e] = pi
		}
	}
	for pi := 0; pi < sys.Partitions(); pi++ {
		pc := sys.PartitionCandidates(pi)
		pgt := links.NewSet()
		for l := range ds.GroundTruth {
			if partOf[l.E1] == pi {
				pgt.Add(l)
			}
		}
		m := eval.Compute(pc, pgt)
		res.PartitionFinalF = append(res.PartitionFinalF, m.F1)
	}
	return res, nil
}

// Report renders the Fig7 result.
func (r *Fig7Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s: rollback on vs off\n\n", r.Profile)
	fmt.Fprintf(&b, "--- with rollback (default) ---\nfinal: %v after %d episodes (converged=%v)\n%s\n",
		r.WithRollback.Final, r.WithRollback.Result.Episodes, r.WithRollback.Result.Converged,
		r.WithRollback.Series.Table())
	fmt.Fprintf(&b, "--- without rollback (Figure 7a) ---\nfinal: %v after %d episodes (converged=%v)\n%s\n",
		r.WithoutRollback.Final, r.WithoutRollback.Result.Episodes, r.WithoutRollback.Result.Converged,
		r.WithoutRollback.Series.Table())
	b.WriteString("per-partition final F without rollback (Figures 7b/7c):\n")
	for pi, f := range r.PartitionFinalF {
		fmt.Fprintf(&b, "  partition %2d: F=%.3f\n", pi, f)
	}
	return b.String()
}

// Fig9IncorrectFeedback compares correct feedback to a 10% error rate
// (Appendix C, Figure 9).
func Fig9IncorrectFeedback(profileName string, opts Options) (*ComparisonRun, error) {
	correct, err := RunQuality(profileName, opts)
	if err != nil {
		return nil, err
	}
	noisy := opts
	noisy.ErrRate = 0.10
	wrong, err := RunQuality(profileName, noisy)
	if err != nil {
		return nil, err
	}
	return &ComparisonRun{Profile: profileName, Labels: [2]string{"correct feedback", "10% incorrect feedback"}, Runs: [2]*QualityRun{correct, wrong}}, nil
}

// CrowdResult compares three feedback channels under the same 10%
// per-user error rate: a single user, and majority-vote crowds of 3 and
// 9 users — the §6.3 "refine the feedback ... obtained from a large
// number of users" idea made concrete.
type CrowdResult struct {
	Profile string
	Labels  []string
	Runs    []*QualityRun
}

// CrowdFeedback runs the crowd-vote comparison on a profile.
func CrowdFeedback(profileName string, opts Options) (*CrowdResult, error) {
	opts.fill()
	prof, err := profile(profileName, opts)
	if err != nil {
		return nil, err
	}
	res := &CrowdResult{Profile: profileName}
	configs := []struct {
		label  string
		voters int
	}{
		{"single user (10% error)", 1},
		{"crowd of 3 (10% each)", 3},
		{"crowd of 9 (10% each)", 9},
	}
	for _, c := range configs {
		ds := synth.Generate(prof)
		crowd := feedback.NewCrowd(ds.GroundTruth, 0.10, c.voters, rand.New(rand.NewSource(opts.Seed)))
		run, _ := runQuality(ds, opts, crowd)
		res.Labels = append(res.Labels, c.label)
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// Report renders the crowd comparison.
func (r *CrowdResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s: feedback-quality refinement via crowd voting\n\n", r.Profile)
	fmt.Fprintf(&b, "%-26s %-8s %-8s %-8s %-9s\n", "channel", "final-P", "final-R", "final-F", "episodes")
	for i, run := range r.Runs {
		fmt.Fprintf(&b, "%-26s %-8.3f %-8.3f %-8.3f %-9d\n",
			r.Labels[i], run.Final.Precision, run.Final.Recall, run.Final.F1, run.Result.Episodes)
	}
	return b.String()
}

// SweepPoint is one configuration of a parameter sweep.
type SweepPoint struct {
	Label string
	Run   *QualityRun
}

// Sweep holds a parameter sweep over one profile.
type Sweep struct {
	Profile string
	Param   string
	Points  []SweepPoint
}

// Report renders the sweep summary and per-point series.
func (s *Sweep) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s: sweep over %s\n\n", s.Profile, s.Param)
	fmt.Fprintf(&b, "%-14s %-8s %-8s %-8s %-10s %-10s %-10s\n", s.Param, "final-P", "final-R", "final-F", "episodes", "neg-fb%", "time/ep")
	for _, p := range s.Points {
		avgNeg := 0.0
		for _, v := range p.Run.Series.NegativeFeedbackPct {
			avgNeg += v
		}
		if n := len(p.Run.Series.NegativeFeedbackPct); n > 0 {
			avgNeg /= float64(n)
		}
		perEp := p.Run.RunTime.Seconds() / maxf(1, float64(p.Run.Result.Episodes))
		fmt.Fprintf(&b, "%-14s %-8.3f %-8.3f %-8.3f %-10d %-10.1f %-10.3f\n",
			p.Label, p.Run.Final.Precision, p.Run.Final.Recall, p.Run.Final.F1,
			p.Run.Result.Episodes, avgNeg, perEp)
	}
	b.WriteString("\nper-point series:\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "--- %s = %s ---\n%s\n", s.Param, p.Label, p.Run.Series.Table())
	}
	return b.String()
}

// Fig10StepSize sweeps the step size (Appendix D, Figure 10).
func Fig10StepSize(profileName string, opts Options, steps []float64) (*Sweep, error) {
	if len(steps) == 0 {
		steps = []float64{0.01, 0.05, 0.1}
	}
	sw := &Sweep{Profile: profileName, Param: "step-size"}
	for _, st := range steps {
		st := st
		run, err := RunQuality(profileName, withMutate(opts, func(c *core.Config) { c.StepSize = st }))
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, SweepPoint{Label: fmt.Sprintf("%.2f", st), Run: run})
	}
	return sw, nil
}

// Fig11EpisodeSize sweeps the episode size (Appendix D, Figure 11).
func Fig11EpisodeSize(profileName string, opts Options, sizes []int) (*Sweep, error) {
	if len(sizes) == 0 {
		sizes = []int{500, 1000, 1500}
	}
	sw := &Sweep{Profile: profileName, Param: "episode-size"}
	for _, sz := range sizes {
		sz := sz
		run, err := RunQuality(profileName, withMutate(opts, func(c *core.Config) { c.EpisodeSize = sz }))
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, SweepPoint{Label: fmt.Sprintf("%d", sz), Run: run})
	}
	return sw, nil
}

// AblationPolicy compares the learned ε-greedy policy against a uniform
// random action choice — an ablation beyond the paper's figures that
// isolates the value of the reinforcement learning component.
func AblationPolicy(profileName string, opts Options) (*ComparisonRun, error) {
	learned, err := RunQuality(profileName, opts)
	if err != nil {
		return nil, err
	}
	uniform, err := RunQuality(profileName, withMutate(opts, func(c *core.Config) { c.UniformPolicy = true }))
	if err != nil {
		return nil, err
	}
	return &ComparisonRun{Profile: profileName, Labels: [2]string{"learned policy", "uniform random policy"}, Runs: [2]*QualityRun{learned, uniform}}, nil
}

// AblationEpsilon sweeps the exploration rate ε.
func AblationEpsilon(profileName string, opts Options, eps []float64) (*Sweep, error) {
	if len(eps) == 0 {
		eps = []float64{0.01, 0.1, 0.3}
	}
	sw := &Sweep{Profile: profileName, Param: "epsilon"}
	for _, e := range eps {
		e := e
		run, err := RunQuality(profileName, withMutate(opts, func(c *core.Config) { c.Epsilon = e }))
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, SweepPoint{Label: fmt.Sprintf("%.2f", e), Run: run})
	}
	return sw, nil
}

// AblationTheta sweeps the filtering threshold θ.
func AblationTheta(profileName string, opts Options, thetas []float64) (*Sweep, error) {
	if len(thetas) == 0 {
		thetas = []float64{0.2, 0.3, 0.5}
	}
	sw := &Sweep{Profile: profileName, Param: "theta"}
	for _, th := range thetas {
		th := th
		run, err := RunQuality(profileName, withMutate(opts, func(c *core.Config) { c.Theta = th }))
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, SweepPoint{Label: fmt.Sprintf("%.2f", th), Run: run})
	}
	return sw, nil
}

// AblationRollbackThreshold sweeps the rollback trigger count.
func AblationRollbackThreshold(profileName string, opts Options, thresholds []int) (*Sweep, error) {
	if len(thresholds) == 0 {
		thresholds = []int{1, 3, 10}
	}
	sw := &Sweep{Profile: profileName, Param: "rollback-threshold"}
	for _, th := range thresholds {
		th := th
		run, err := RunQuality(profileName, withMutate(opts, func(c *core.Config) { c.RollbackThreshold = th }))
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, SweepPoint{Label: fmt.Sprintf("%d", th), Run: run})
	}
	return sw, nil
}

// TimingRow reports the §7.3 execution-time experiment for one profile.
type TimingRow struct {
	Profile    string
	Episodes   int
	Total      time.Duration
	PerEpisode time.Duration
}

// ExecutionTime measures wall-clock per episode for a batch-mode profile
// and a specific-domain profile (§7.3: minutes per episode in batch
// mode, seconds total in interactive mode — here both scaled down).
func ExecutionTime(profileNames []string, opts Options) ([]TimingRow, error) {
	if len(profileNames) == 0 {
		profileNames = []string{"dbpedia-nytimes", "dbpedia-nba-nytimes"}
	}
	var rows []TimingRow
	for _, name := range profileNames {
		run, err := RunQuality(name, opts)
		if err != nil {
			return nil, err
		}
		eps := run.Result.Episodes
		if eps == 0 {
			eps = 1
		}
		rows = append(rows, TimingRow{
			Profile:    name,
			Episodes:   run.Result.Episodes,
			Total:      run.BuildTime + run.RunTime,
			PerEpisode: time.Duration(int64(run.RunTime) / int64(eps)),
		})
	}
	return rows, nil
}

// FormatTiming renders timing rows.
func FormatTiming(rows []TimingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-10s %-12s %-12s\n", "profile", "episodes", "total", "per-episode")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-10d %-12s %-12s\n", r.Profile, r.Episodes, r.Total.Round(time.Millisecond), r.PerEpisode.Round(time.Millisecond))
	}
	return b.String()
}

func withMutate(opts Options, fn func(*core.Config)) Options {
	prev := opts.Mutate
	opts.Mutate = func(c *core.Config) {
		if prev != nil {
			prev(c)
		}
		fn(c)
	}
	return opts
}

// withDefault is withMutate with fn applied before opts.Mutate, so that
// the caller's Mutate can still override what fn sets.
func withDefault(opts Options, fn func(*core.Config)) Options {
	prev := opts.Mutate
	opts.Mutate = func(c *core.Config) {
		fn(c)
		if prev != nil {
			prev(c)
		}
	}
	return opts
}
