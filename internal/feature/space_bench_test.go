package feature

import (
	"testing"

	"alex/internal/synth"
)

// BenchmarkSpaceBuild measures feature-space construction on the
// largest synth profile (dbpedia-opencyc). Run with -cpu=1,2,4,8 for
// scaling rows — Options.Workers follows GOMAXPROCS, so each -cpu value
// is one point on the speedup curve (make bench-space writes the rows
// to BENCH_space.json). Each case times the whole call: preparing the
// dataset-2 side, its value index and the hit lists is inside the loop.
//
//   - build: Build, every dataset-1 entity in one partition.
//   - partitions: BuildPartitions over the profile's Partitions
//     (PartitionRoundRobin), the call core.New makes; its partitions
//     share one scoring of the dataset-1 values.
func BenchmarkSpaceBuild(b *testing.B) {
	scale := 0.25
	if testing.Short() {
		scale = 0.05
	}
	prof, _ := synth.ProfileByName("dbpedia-opencyc")
	prof = prof.Scale(scale)
	ds := synth.Generate(prof)
	opts := Options{Theta: DefaultTheta}
	parts := PartitionRoundRobin(ds.Entities1, prof.Partitions)
	run := func(b *testing.B, build func() int) {
		b.ReportAllocs()
		var total int
		for i := 0; i < b.N; i++ {
			total = build()
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
	}
	b.Run("build", func(b *testing.B) {
		run(b, func() int { return Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, opts).TotalPairs })
	})
	b.Run("partitions", func(b *testing.B) {
		run(b, func() int {
			total := 0
			for _, sp := range BuildPartitions(ds.G1, ds.G2, parts, ds.Entities2, opts) {
				total += sp.TotalPairs
			}
			return total
		})
	})
}
