package core

import (
	"fmt"
	"sort"
	"strings"

	"alex/internal/feature"
	"alex/internal/rdf"
)

// FeatureStat aggregates what the system has learned about one feature
// (predicate pair) across all states and partitions: how often it was
// chosen as an action, and the average of the action-value estimates.
// This surfaces the paper's §4.2 observation directly — distinctive
// features like (label, name) accumulate positive value, while
// non-distinctive ones like (rdf:type, rdf:type) go negative and stop
// being chosen.
type FeatureStat struct {
	Key feature.Key
	// States is the number of states whose action set includes the
	// feature and that have a value estimate for it.
	States int
	// MeanQ is the mean action-value estimate across those states.
	MeanQ float64
	// GreedyFor is the number of states whose current greedy action is
	// this feature.
	GreedyFor int
}

// FeatureStats returns learned per-feature statistics, most valuable
// first. It reflects the policy after the last completed episode.
func (s *System) FeatureStats() []FeatureStat {
	type acc struct {
		sum    float64
		n      int
		greedy int
	}
	byKey := map[feature.Key]*acc{}
	for _, p := range s.parts {
		for _, e := range p.ctrl.Export() {
			a := byKey[e.Action]
			if a == nil {
				a = &acc{}
				byKey[e.Action] = a
			}
			if e.N > 0 {
				a.sum += e.Sum / float64(e.N)
				a.n++
			}
			if g, ok := p.ctrl.GreedyAction(e.State); ok && g == e.Action {
				a.greedy++
			}
		}
	}
	out := make([]FeatureStat, 0, len(byKey))
	for k, a := range byKey {
		st := FeatureStat{Key: k, States: a.n, GreedyFor: a.greedy}
		if a.n > 0 {
			st.MeanQ = a.sum / float64(a.n)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanQ != out[j].MeanQ {
			return out[i].MeanQ > out[j].MeanQ
		}
		if out[i].Key.P1 != out[j].Key.P1 {
			return out[i].Key.P1 < out[j].Key.P1
		}
		return out[i].Key.P2 < out[j].Key.P2
	})
	return out
}

// FormatFeatureStats renders feature statistics with predicate names
// resolved through the dictionary.
func FormatFeatureStats(d *rdf.Dict, stats []FeatureStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-28s %-8s %-8s %s\n", "ds1 predicate", "ds2 predicate", "meanQ", "states", "greedy-for")
	for _, st := range stats {
		fmt.Fprintf(&b, "%-28s %-28s %-8.3f %-8d %d\n",
			d.Term(st.Key.P1).LocalName(), d.Term(st.Key.P2).LocalName(), st.MeanQ, st.States, st.GreedyFor)
	}
	return b.String()
}
