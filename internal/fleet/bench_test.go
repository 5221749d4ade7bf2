package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"alex/internal/federation"
	"alex/internal/server"
)

// Benchmark knobs. Each source access sleeps benchSourceLatency (the
// stand-in for a remote endpoint's round trip — see AccessFunc), and
// every shard admits at most benchShardSlots concurrent queries. Total
// fleet capacity is therefore shards x slots / latency queries/s, so
// router throughput should scale near-linearly from 1 to 4 shards.
// Without the simulated I/O the shards are in-process map lookups and
// a single node already saturates the client, hiding the scaling the
// bench exists to record.
const (
	benchSourceLatency = 2 * time.Millisecond
	benchShardSlots    = 4
)

// BenchmarkFleetQuery drives SELECT queries through an alexrouter over
// 1, 2 and 4 shards (each query answered by one shard's full read and
// relayed) with I/O-bound sources. make bench-fleet records the result
// as BENCH_fleet.json; acceptance is queries/s growing with the shard
// count.
func BenchmarkFleetQuery(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			w := tinyWorld(b)
			for i := range w.sources {
				w.sources[i].Access = func(ctx context.Context) error {
					select {
					case <-time.After(benchSourceLatency):
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				}
			}
			f := startFleet(b, w, n, server.Config{MaxConcurrentQueries: benchShardSlots})
			f.waitConverged(b, len(w.initial))

			// A router of its own over the same shards, with a breaker
			// that does not trip on one slow probe under load.
			r, err := New(Config{
				Shards:         f.addrs,
				HealthInterval: 50 * time.Millisecond,
				Breaker:        federation.BreakerConfig{Failures: 3, Cooldown: time.Second, Successes: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			rts := httptest.NewServer(r.Handler())
			b.Cleanup(func() { rts.Close(); r.Close() })

			queries := w.queries
			b.SetParallelism(4 * n) // keep every shard's slots occupied
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := server.NewClient(rts.URL)
				i := 0
				for pb.Next() {
					q := queries[i%len(queries)]
					i++
					if _, err := c.Query(q); err != nil {
						b.Errorf("query %q: %v", q, err)
						return
					}
				}
			})
		})
	}
}
