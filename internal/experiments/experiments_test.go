package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alex/internal/core"
	"alex/internal/synth"
)

var updateTrajectories = flag.Bool("update-trajectories", false,
	"rewrite testdata/trajectories from this run instead of comparing against it")

// trajectoryCSV is a run's path, one row per episode: Series.CSV's
// columns and then the episode's EpisodeStats. Row 0 is PARIS's
// candidate set, before any feedback.
func trajectoryCSV(r *QualityRun) string {
	rows := strings.Split(strings.TrimSuffix(r.Series.CSV(), "\n"), "\n")
	var b strings.Builder
	b.WriteString(rows[0] + ",feedback,negative,explored,explorations,removed,rollbacks,spared,blacklisted,changed_frac\n")
	for i, row := range rows[1:] {
		b.WriteString(row)
		if i > 0 {
			st := r.Result.Stats[i-1]
			fmt.Fprintf(&b, ",%d,%d,%d,%d,%d,%d,%d,%d,%.6f", st.Feedback, st.Negative, st.Explored,
				st.Explorations, st.Removed, st.Rollbacks, st.Spared, st.Blacklisted, st.ChangedFrac)
		} else {
			b.WriteString(",,,,,,,,,")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// checkTrajectory holds a run to its golden per-episode trajectory in
// testdata/trajectories/<name>.csv. The runs are seeded end to end, so
// any change to the learning loop that moves one episode shows here,
// not only one that moves the final F. -update-trajectories rewrites
// the file; do that only for a change meant to move the loop, and show
// the diff.
func checkTrajectory(t *testing.T, name string, r *QualityRun) {
	t.Helper()
	path := filepath.Join("testdata", "trajectories", name+".csv")
	got := trajectoryCSV(r)
	if *updateTrajectories {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s departs from its golden trajectory at line %d:\n got %q\nwant %q", path, i+1, gl, wl)
		}
	}
}

// smallOpts keeps experiment tests fast on one core.
func smallOpts() Options {
	return Options{
		Scale: 0.25,
		Mutate: func(c *core.Config) {
			c.EpisodeSize = 200
			c.MaxEpisodes = 12
		},
	}
}

func TestRunQualityUnknownProfile(t *testing.T) {
	if _, err := RunQuality("no-such-pair", Options{}); err == nil {
		t.Fatal("unknown profile did not error")
	}
}

func TestRunQualityImprovesF(t *testing.T) {
	r, err := RunQuality("opencyc-lexvo", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Final.F1 <= r.Initial.F1 {
		t.Fatalf("no improvement: %.3f -> %.3f", r.Initial.F1, r.Final.F1)
	}
	if r.Discovered == 0 {
		t.Fatal("no new links discovered")
	}
	if len(r.Series.Points) != r.Result.Episodes+1 {
		t.Fatalf("series has %d points for %d episodes", len(r.Series.Points), r.Result.Episodes)
	}
	if rep := r.Report(); !strings.Contains(rep, "profile opencyc-lexvo") {
		t.Fatal("report missing profile header")
	}
}

// TestRunQualityFiles is alexbench's file mode on the files synthgen
// writes: a 0.1-scale profile read back from disk, linked by PARIS and
// refined by ALEX against truth.nt.
func TestRunQualityFiles(t *testing.T) {
	prof, ok := synth.ProfileByName("dbpedia-nba-nytimes")
	if !ok {
		t.Fatal("missing profile")
	}
	dir := t.TempDir()
	if err := synth.Generate(prof.Scale(0.1)).WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	truth := filepath.Join(dir, "truth.nt")
	data, err := os.ReadFile(truth)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunQualityFiles(filepath.Join(dir, "ds1.nt"), filepath.Join(dir, "ds2.nt"), truth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Count(data, []byte("\n")); r.GroundTruth != want {
		t.Fatalf("ground truth %d links, truth.nt has %d", r.GroundTruth, want)
	}
	if r.Result.Episodes < 1 {
		t.Fatalf("no episode ran: %+v", r.Result)
	}
	t.Logf("%d links, %d episodes: %v -> %v", r.GroundTruth, r.Result.Episodes, r.Initial, r.Final)
}

func TestTable1(t *testing.T) {
	rows := Table1(0.05)
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11 dataset pairs", len(rows))
	}
	for _, r := range rows {
		if r.Triples1 == 0 || r.Triples2 == 0 || r.GTLinks == 0 {
			t.Errorf("row %s has zero counts: %+v", r.Profile, r)
		}
	}
	if s := FormatTable1(rows); !strings.Contains(s, "dbpedia-nytimes") {
		t.Fatal("formatted table missing rows")
	}
}

func TestFig5Filtering(t *testing.T) {
	r, err := Fig5("dbpedia-nytimes", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.FilteredPairs >= r.TotalPairs {
		t.Fatalf("no reduction: %d of %d", r.FilteredPairs, r.TotalPairs)
	}
	if r.ReductionPct < 50 {
		t.Errorf("reduction = %.1f%%, want substantial (the paper reports 95%%)", r.ReductionPct)
	}
	if r.GroundTruth == 0 {
		t.Error("no ground truth in partition 0")
	}
	if rep := r.Report(); !strings.Contains(rep, "Figure 5a") {
		t.Fatal("report format wrong")
	}
}

func TestFig6Blacklist(t *testing.T) {
	c, err := Fig6Blacklist("opencyc-lexvo", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	meanNeg := func(r *QualityRun) float64 {
		s := 0.0
		for _, v := range r.Series.NegativeFeedbackPct {
			s += v
		}
		if len(r.Series.NegativeFeedbackPct) == 0 {
			return 0
		}
		return s / float64(len(r.Series.NegativeFeedbackPct))
	}
	with, without := meanNeg(c.Runs[0]), meanNeg(c.Runs[1])
	t.Logf("negative feedback: with=%.1f%% without=%.1f%%", with, without)
	if with > without+5 {
		t.Errorf("blacklist increased negative feedback substantially: %.1f vs %.1f", with, without)
	}
	if rep := c.Report(); !strings.Contains(rep, "with blacklist") {
		t.Fatal("report missing labels")
	}
}

// TestFig7Rollback runs the figure's own profile at full scale, as
// `alexbench -exp fig7` does: without rollback precision collapses
// (EXPERIMENTS.md: F=0.157), with it F recovers to several times that
// (F=0.629).
func TestFig7Rollback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dbpedia-nytimes at full scale twice")
	}
	r, err := Fig7Rollback("dbpedia-nytimes", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PartitionFinalF) == 0 {
		t.Fatal("no per-partition data")
	}
	with, without := r.WithRollback.Final.F1, r.WithoutRollback.Final.F1
	t.Logf("with rollback F=%.3f, without F=%.3f", with, without)
	if without >= 0.3 {
		t.Errorf("no collapse without rollback: F=%.3f, want < 0.3", without)
	}
	if with < 2*without {
		t.Errorf("rollback did not recover: F=%.3f with vs %.3f without, want at least 2x", with, without)
	}
	if rep := r.Report(); !strings.Contains(rep, "per-partition final F") {
		t.Fatal("report format wrong")
	}
	checkTrajectory(t, "fig7-with-rollback", r.WithRollback)
	checkTrajectory(t, "fig7-without-rollback", r.WithoutRollback)
}

// TestFig9IncorrectFeedback runs Appendix C at `alexbench -exp fig9`'s
// defaults: dbpedia-nytimes at full scale, seed 42, with clean and 10 %
// wrong feedback. EXPERIMENTS.md records P 0.991, R 0.858, F 0.920
// noisy against P = R = F = 1.000 clean: noise costs a little
// precision and a seventh of the recall, and the candidate set does
// not flood (at 20 % it does, with P 0.006).
func TestFig9IncorrectFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dbpedia-nytimes at full scale twice")
	}
	c, err := Fig9IncorrectFeedback("dbpedia-nytimes", Options{})
	if err != nil {
		t.Fatal(err)
	}
	clean, noisy := c.Runs[0].Final, c.Runs[1].Final
	t.Logf("clean P=%.3f R=%.3f F=%.3f; 10%% wrong P=%.3f R=%.3f F=%.3f",
		clean.Precision, clean.Recall, clean.F1, noisy.Precision, noisy.Recall, noisy.F1)
	if noisy.F1 >= clean.F1 {
		t.Errorf("wrong feedback cost nothing: F=%.3f noisy vs %.3f clean", noisy.F1, clean.F1)
	}
	if noisy.Precision < 0.95 {
		t.Errorf("precision under noise %.3f, want >= 0.95", noisy.Precision)
	}
	if noisy.Recall < 0.65 {
		t.Errorf("recall under noise %.3f, want >= 0.65", noisy.Recall)
	}
	if noisy.F1 < 0.75 {
		t.Errorf("F under noise %.3f, want >= 0.75", noisy.F1)
	}
	checkTrajectory(t, "fig9-clean", c.Runs[0])
	checkTrajectory(t, "fig9-10pct-wrong", c.Runs[1])
}

func TestFig10StepSize(t *testing.T) {
	sw, err := Fig10StepSize("opencyc-lexvo", smallOpts(), []float64{0.01, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 {
		t.Fatalf("points = %d", len(sw.Points))
	}
	if rep := sw.Report(); !strings.Contains(rep, "step-size") {
		t.Fatal("report format wrong")
	}
}

func TestFig11EpisodeSize(t *testing.T) {
	sw, err := Fig11EpisodeSize("opencyc-lexvo", Options{Scale: 0.25, Mutate: func(c *core.Config) { c.MaxEpisodes = 10 }}, []int{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 {
		t.Fatalf("points = %d", len(sw.Points))
	}
}

func TestAblations(t *testing.T) {
	if _, err := AblationPolicy("opencyc-lexvo", smallOpts()); err != nil {
		t.Fatal(err)
	}
	if sw, err := AblationEpsilon("opencyc-lexvo", smallOpts(), []float64{0.05, 0.3}); err != nil || len(sw.Points) != 2 {
		t.Fatalf("epsilon sweep: %v", err)
	}
	if sw, err := AblationTheta("opencyc-lexvo", smallOpts(), []float64{0.3, 0.5}); err != nil || len(sw.Points) != 2 {
		t.Fatalf("theta sweep: %v", err)
	}
	if sw, err := AblationRollbackThreshold("opencyc-lexvo", smallOpts(), []int{1, 10}); err != nil || len(sw.Points) != 2 {
		t.Fatalf("rollback sweep: %v", err)
	}
}

func TestRunQueryDrivenImprovesF(t *testing.T) {
	// Scale 0.75 is the smallest instance where the exploration loop has
	// room to act: at 0.5 the candidate set collapses to a handful of
	// links within a few episodes and the run measures noise, not the
	// loop.
	r, err := RunQueryDriven("opencyc-lexvo", Options{Scale: 0.75, Mutate: func(c *core.Config) {
		c.EpisodeSize = 150
		c.MaxEpisodes = 25
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("query-driven: %v -> %v, discovered %d", r.Initial, r.Final, r.Discovered)
	if r.Final.F1 <= r.Initial.F1 {
		t.Fatalf("no improvement through the federated loop: %.3f -> %.3f", r.Initial.F1, r.Final.F1)
	}
	if r.Discovered == 0 {
		t.Fatal("no links discovered through query feedback")
	}
	checkTrajectory(t, "querydriven", r)
}

func TestRunQueryDrivenUnknownProfile(t *testing.T) {
	if _, err := RunQueryDriven("nope", Options{}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestCrowdFeedback(t *testing.T) {
	r, err := CrowdFeedback("opencyc-lexvo", Options{Scale: 1.0, Mutate: func(c *core.Config) {
		c.EpisodeSize = 100
		c.MaxEpisodes = 12
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 3 {
		t.Fatalf("runs = %d", len(r.Runs))
	}
	single, crowd9 := r.Runs[0].Final, r.Runs[2].Final
	t.Logf("single F=%.3f, crowd9 F=%.3f", single.F1, crowd9.F1)
	// The big crowd must not be worse than the single noisy user.
	if crowd9.F1 < single.F1-0.05 {
		t.Fatalf("crowd voting hurt quality: %.3f vs %.3f", crowd9.F1, single.F1)
	}
	if rep := r.Report(); !strings.Contains(rep, "crowd of 9") {
		t.Fatal("report format wrong")
	}
	for i, name := range []string{"crowd-1", "crowd-3", "crowd-9"} {
		checkTrajectory(t, name, r.Runs[i])
	}
}

func TestRunMultiSeed(t *testing.T) {
	r, err := RunMultiSeed("opencyc-lexvo", smallOpts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.F1.N != 3 || len(r.Runs) != 3 {
		t.Fatalf("n = %d", r.F1.N)
	}
	if r.F1.Mean <= 0 || r.F1.Mean > 1 {
		t.Fatalf("mean F = %f", r.F1.Mean)
	}
	if r.F1.Min > r.F1.Mean || r.F1.Max < r.F1.Mean {
		t.Fatalf("stats inconsistent: %+v", r.F1)
	}
	if rep := r.Report(); !strings.Contains(rep, "final F-measure") {
		t.Fatal("report format wrong")
	}
	if _, err := RunMultiSeed("nope", smallOpts(), 2); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestSeedStats(t *testing.T) {
	st := newSeedStats([]float64{1, 2, 3})
	if st.Mean != 2 || st.Min != 1 || st.Max != 3 || st.N != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Std < 0.99 || st.Std > 1.01 {
		t.Fatalf("std = %f, want 1", st.Std)
	}
	if empty := newSeedStats(nil); empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
}

func TestSummarySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("summary runs every profile")
	}
	rows, err := Summary(Options{Scale: 0.15, Mutate: func(c *core.Config) {
		c.EpisodeSize = 100
		c.MaxEpisodes = 8
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's claim on every pair: ALEX improves on its linker, by
	// at least 0.05 in F wherever PARIS leaves that much to gain.
	for _, r := range rows {
		t.Logf("%s: F %.2f -> %.2f", r.Profile, r.Initial.F1, r.Final.F1)
		if r.Final.F1 < r.Initial.F1 {
			t.Errorf("%s: final F %.3f below PARIS's %.3f", r.Profile, r.Final.F1, r.Initial.F1)
		}
		if r.Initial.F1 < 0.95 && r.Final.F1 < r.Initial.F1+0.05 {
			t.Errorf("%s: final F %.3f gains under 0.05 on PARIS's %.3f", r.Profile, r.Final.F1, r.Initial.F1)
		}
	}
	if s := FormatSummary(rows); !strings.Contains(s, "dbpedia-nytimes") {
		t.Fatal("format wrong")
	}
}

func TestExecutionTime(t *testing.T) {
	rows, err := ExecutionTime([]string{"opencyc-lexvo"}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Total <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
	if s := FormatTiming(rows); !strings.Contains(s, "per-episode") {
		t.Fatal("timing format wrong")
	}
}
