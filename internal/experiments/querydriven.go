package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"alex/internal/core"
	"alex/internal/eval"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/synth"
)

// RunQueryDriven runs the full Figure-1 loop instead of the evaluation
// shortcut: feedback is not given on sampled links directly, but on the
// answers of federated SPARQL queries whose evaluation crossed sameAs
// links. A simulated user approves an answer exactly when every link it
// used is in the ground truth (errors injected at opts.ErrRate), and
// federation.Approve/Reject translate that into link feedback — the
// system under test is the entire pipeline.
func RunQueryDriven(profileName string, opts Options) (*QualityRun, error) {
	opts.fill()
	prof, ok := synth.ProfileByName(profileName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown profile %q", profileName)
	}
	if opts.Scale != 1 {
		prof = prof.Scale(opts.Scale)
	}
	ds := synth.Generate(prof)

	t1, t2, cleanup, err := opts.stores(ds)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	scored := paris.Link(t1, t2, ds.Entities1, ds.Entities2, paris.NewOptions())
	initial := make([]links.Link, len(scored))
	initialSet := links.NewSet()
	for i, s := range scored {
		initial[i] = s.Link
		initialSet.Add(s.Link)
	}

	cfg := core.DefaultConfig()
	cfg.EpisodeSize = prof.EpisodeSize
	cfg.Partitions = prof.Partitions
	cfg.Seed = prof.Seed
	// Answer-level judgments against the ground truth are definitive
	// (any error injection happens at the answer, below), so the first
	// rejection of a link is trustworthy: the literal §6.3 blacklist
	// rule converges much faster here.
	cfg.BlacklistMargin = 1
	if opts.Mutate != nil {
		opts.Mutate(&cfg)
	}

	buildStart := time.Now()
	sys := core.New(t1, t2, ds.Entities1, ds.Entities2, initial, cfg)
	run := &QualityRun{Profile: prof, GroundTruth: ds.GroundTruth.Len(), BuildTime: time.Since(buildStart)}
	run.Initial = eval.Compute(sys.Candidates(), ds.GroundTruth)
	run.Series.Append(run.Initial)

	fed := federation.New(ds.Dict)
	fed.SetPlanCache(federation.NewPlanCache(0))
	if err := fed.AddSource("ds1", t1); err != nil {
		return nil, err
	}
	if err := fed.AddSource("ds2", t2); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	// Query templates ask, for a dataset-1 entity, about a dataset-2
	// property — answerable only across a sameAs link.
	ds2Preds := []string{synth.P2Group.Value, synth.P2Born.Value, synth.P2Place.Value}

	runStart := time.Now()
	maxEpisodes := cfg.MaxEpisodes
	need := cfg.ConvergenceEpisodes
	if need < 1 {
		need = 1
	}
	unchanged := 0
	for ep := 0; ep < maxEpisodes; ep++ {
		// The query layer sees the current candidate links.
		fed.SetLinks(sys.Candidates())
		sys.BeginEpisode()
		feedbackCount, negative := 0, 0

		for i := 0; i < cfg.EpisodeSize; i++ {
			l, ok := sys.SampleCandidate()
			if !ok {
				break
			}
			// A user whose query touches the sampled link's entity.
			e1 := ds.Dict.Term(l.E1)
			pred := ds2Preds[rng.Intn(len(ds2Preds))]
			query := fmt.Sprintf(`SELECT ?v WHERE { <%s> <%s> ?v . }`, e1.Value, pred)
			res, err := fed.Query(query)
			if err != nil {
				return nil, fmt.Errorf("experiments: federated query: %w", err)
			}
			// The user evaluates every returned answer, as in §3.2.
			for _, row := range res.Rows {
				if row.Used.Len() == 0 {
					continue // answered within one dataset; no link feedback
				}
				// The user knows whether the answer is right: it is
				// right when every link it used is a true link.
				correct := true
				for ul := range row.Used {
					if !ds.GroundTruth.Has(ul) {
						correct = false
						break
					}
				}
				if opts.ErrRate > 0 && rng.Float64() < opts.ErrRate {
					correct = !correct
				}
				feedbackCount++
				if correct {
					federation.Approve(row, sys)
				} else {
					negative++
					federation.Reject(row, sys)
				}
			}
		}

		st := sys.FinishEpisode()
		st.Feedback = feedbackCount
		st.Negative = negative
		run.Result.Stats = append(run.Result.Stats, st)
		m := eval.Compute(sys.Candidates(), ds.GroundTruth)
		run.Series.Append(m)
		run.Series.NegativeFeedbackPct = append(run.Series.NegativeFeedbackPct, st.NegativePct())

		if st.ChangedFrac == 0 {
			unchanged++
			if unchanged >= need {
				run.Result.Converged = true
				break
			}
		} else {
			unchanged = 0
		}
	}
	run.RunTime = time.Since(runStart)
	run.Result.Episodes = sys.Episode()
	run.Final = run.Series.Last()
	for l := range sys.Candidates() {
		if ds.GroundTruth.Has(l) && !initialSet.Has(l) {
			run.Discovered++
		}
	}
	return run, nil
}
