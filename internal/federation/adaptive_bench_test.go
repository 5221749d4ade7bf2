package federation

import (
	"testing"
)

// BenchmarkAdaptiveQuery measures what learned cardinalities are worth
// on the skewed-hub profile, where static estimates provably pick the
// wrong join order (they schedule the 8×-fan-out connectedWith pattern
// before the 10×-shrinking type filter; see synth.runSkewed):
//
//   - fresh: no plan cache, so every iteration parses, compiles and
//     runs a plan that has learned nothing — the static order.
//   - learned: a plan cache whose plan has already folded in the
//     fan-out — the steady state of a hot query under alexd.
//
// `make bench-query` records both rows in BENCH_query.json; the learned
// row's throughput over fresh is the headline win (parsing and
// compiling this text is microseconds of fresh's figure).
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

	b.Run("fresh", func(b *testing.B) {
		run(b, copyOf(f))
	})
	b.Run("learned", func(b *testing.B) {
		fed := copyOf(f)
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
