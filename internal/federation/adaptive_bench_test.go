package federation

import (
	"testing"
)

// BenchmarkAdaptiveQuery measures the query the skewed-hub profile is
// built to mislead (see synth.runSkewed): static estimates schedule the
// 8×-fan-out connectedWith pattern before the 10×-shrinking type
// filter, and that is the order every run executes, since no
// cardinality is carried from one query to the next.
//
//   - fresh: no plan cache, so every iteration parses, compiles and
//     runs the plan.
//
// `make bench-query` records the row in BENCH_query.json.
func BenchmarkAdaptiveQuery(b *testing.B) {
	scale := 1.0
	if testing.Short() {
		scale = 0.1
	}
	f, _, query := skewedFederation(b, scale)
	b.Run("fresh", func(b *testing.B) {
		fed := copyOf(f)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fed.Query(query); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}
