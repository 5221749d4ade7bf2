package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"alex/internal/core"
	"alex/internal/federation"
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
	prof, err := profile(profileName, opts)
	if err != nil {
		return nil, err
	}
	ds := synth.Generate(prof)
	// Answer-level judgments against the ground truth are definitive
	// (any error injection happens at the answer, below), so the first
	// rejection of a link is trustworthy: the literal §6.3 blacklist
	// rule converges much faster here.
	w := newWorld(ds, withDefault(opts, func(c *core.Config) { c.BlacklistMargin = 1 }))
	sys, run := w.sys, w.run

	fed := federation.New(ds.Dict)
	fed.SetPlanCache(federation.NewPlanCache(0))
	if err := fed.AddSource("ds1", ds.G1); err != nil {
		return nil, err
	}
	if err := fed.AddSource("ds2", ds.G2); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	// Query templates ask, for a dataset-1 entity, about a dataset-2
	// property — answerable only across a sameAs link.
	ds2Preds := []string{synth.P2Group.Value, synth.P2Born.Value, synth.P2Place.Value}

	runStart := time.Now()
	for sys.Episode() < w.cfg.MaxEpisodes && !sys.Converged() {
		// The query layer sees the current candidate links.
		fed.SetLinks(sys.Candidates())
		sys.BeginEpisode()
		feedbackCount, negative := 0, 0

		for i := 0; i < w.cfg.EpisodeSize; i++ {
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
		w.record(st)
	}
	run.RunTime = time.Since(runStart)
	run.Result.Episodes = sys.Episode()
	run.Result.Converged = sys.Converged()
	w.finish()
	return run, nil
}
