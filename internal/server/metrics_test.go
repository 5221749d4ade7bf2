package server

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests.")
	r.GaugeFunc("test_depth", "Depth.", func() float64 { return 2.5 })
	r.GaugeFunc("test_version", "Version.", func() float64 { return 7 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})

	c.Add(3)
	// Binary-exact observations keep the _sum line deterministic.
	h.Observe(0.0625) // bucket le=0.1
	h.Observe(0.5)    // bucket le=1
	h.Observe(5)      // overflow bucket

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		"test_requests_total 3",
		"# TYPE test_depth gauge",
		"test_depth 2.5",
		"test_version 7",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.5625",
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "y")
}

func TestInstrumentsConcurrentSafety(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter = %d, hist count = %d", c.Value(), h.Count())
	}
}
