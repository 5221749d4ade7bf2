// Metrics: a dependency-free registry of counters, gauges and
// histograms exported in the Prometheus text exposition format. The
// instruments are lock-free on the hot path (atomic loads/adds); the
// registry lock is only taken at registration and scrape time.
package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram of observations (seconds, by
// convention). Buckets are cumulative in the exported format, as
// Prometheus expects.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefBuckets covers request latencies from 100µs to 10s.
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

type metric struct {
	name, help string
	// labels is a rendered Prometheus label set ("k=\"v\",..."), empty
	// for unlabeled metrics. Several metrics may share a name with
	// distinct labels; they form one family in the exposition.
	labels    string
	kind      metricKind
	counter   *Counter
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.name
	if m.labels != "" {
		key += "{" + m.labels + "}"
	}
	if r.names[key] {
		panic(fmt.Sprintf("server: metric %q registered twice", key))
	}
	r.names[key] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// CounterFunc registers a counter whose value is read at scrape time.
// fn must be monotonically non-decreasing (counter semantics); use it
// for counts that already live elsewhere, like plan-cache statistics.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(metric{name: name, help: help, kind: kindCounterFunc, counterFn: fn})
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(metric{name: name, help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// LabeledGaugeFunc registers one labeled sample of a gauge family;
// labels is a rendered Prometheus label set such as `source="ds1"`.
// Samples sharing a name must be registered consecutively to form one
// family in the exposition.
func (r *Registry) LabeledGaugeFunc(name, labels, help string, fn func() float64) {
	r.register(metric{name: name, labels: labels, help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (nil for DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// WritePrometheus renders every metric in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	prevFamily := ""
	for _, m := range ms {
		sample := m.name
		if m.labels != "" {
			sample += "{" + m.labels + "}"
		}
		if m.name != prevFamily {
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
			prevFamily = m.name
		} else {
			// Later samples of the same family: HELP/TYPE already out.
			switch m.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s %d\n", sample, m.counter.Value())
			case kindCounterFunc:
				fmt.Fprintf(w, "%s %d\n", sample, m.counterFn())
			case kindGaugeFunc:
				fmt.Fprintf(w, "%s %s\n", sample, formatFloat(m.gaugeFn()))
			}
			continue
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, sample, m.counter.Value())
		case kindCounterFunc:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, sample, m.counterFn())
		case kindGaugeFunc:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m.name, sample, formatFloat(m.gaugeFn()))
		case kindHistogram:
			fmt.Fprintf(w, "# TYPE %s histogram\n", m.name)
			var cum uint64
			for i, bound := range m.hist.bounds {
				cum += m.hist.buckets[i].Load()
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(bound), cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, m.hist.Count())
			fmt.Fprintf(w, "%s_sum %s\n", m.name, formatFloat(m.hist.Sum()))
			fmt.Fprintf(w, "%s_count %d\n", m.name, m.hist.Count())
		}
	}
}

func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
