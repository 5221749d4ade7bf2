package federation

import (
	"testing"
)

// BenchmarkAdaptiveQuery measures what mid-query re-planning is worth
// on the skewed-hub profile, where the static planner provably picks
// the wrong join order (it schedules the 8×-fan-out connectedWith
// pattern before the 10×-shrinking type filter; see synth.runSkewed).
// Both configurations run with a pre-warmed plan cache so the
// comparison isolates execution order, not parsing:
//
//   - static: ReplanEvery=0, the plan-time order executed as compiled.
//   - adaptive: ReplanEvery=1 with the plan's learned cardinalities
//     already primed — the steady state of a hot query under alexd.
//
// `make bench-query` records both rows in BENCH_query.json; the
// adaptive row's throughput over static is the headline win.
func BenchmarkAdaptiveQuery(b *testing.B) {
	scale := 1.0
	if testing.Short() {
		scale = 0.1
	}
	f, _, query := skewedFederation(b, scale)

	run := func(b *testing.B, fed *Federator) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fed.Query(query); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}

	b.Run("static", func(b *testing.B) {
		fed := withOptions(f, Options{})
		fed.SetPlanCache(NewPlanCache(16))
		if _, err := fed.Query(query); err != nil { // prime the plan cache
			b.Fatal(err)
		}
		run(b, fed)
	})
	b.Run("adaptive", func(b *testing.B) {
		fed := withOptions(f, Options{ReplanEvery: 1})
		fed.SetPlanCache(NewPlanCache(16))
		// Two priming queries: the first compiles the plan and observes
		// the fan-out, the second already executes the learned order.
		for i := 0; i < 2; i++ {
			if _, err := fed.Query(query); err != nil {
				b.Fatal(err)
			}
		}
		run(b, fed)
	})
}
