package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside it: name,
// start, end, the span that caused it and the request both belong to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was made
	EndNs   int64  `json:"end_ns"`
	// Speed is the host's speed in units while the span ran, when it was
	// measured (clock.go); start and end are as the clock read.
	Speed float64 `json:"cpu_speed,omitempty"`
}

// us is the span's duration in reported µs.
func (s *span) us() float64 {
	d := float64(s.EndNs-s.StartNs) / 1e3
	if s.Speed != 0 {
		d *= s.Speed
	}
	return d
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// add records a span whose start, end and speed the caller measured.
func (t *tracer) add(parent *span, name string, request int, timed span) *span {
	s := &span{ID: len(t.spans) + 1, Request: request, Name: name, StartNs: timed.StartNs, EndNs: timed.EndNs, Speed: timed.Speed}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// begin opens a span now; end closes it.
func (t *tracer) begin(parent *span, name string, request int) *span {
	return t.add(parent, name, request, span{StartNs: t.now()})
}

func (t *tracer) end(s *span) { s.EndNs = t.now() }

// p50 is the median duration in µs of the spans called name, and self
// the median of each such span's duration minus its children's.
func (t *tracer) p50(name string) (total, self float64) {
	children := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.us()
		}
	}
	var totals, selfs []float64
	for _, s := range t.spans {
		if s.Name == name {
			totals = append(totals, s.us())
			selfs = append(selfs, s.us()-children[s.ID])
		}
	}
	sort.Float64s(totals)
	sort.Float64s(selfs)
	return median(totals), median(selfs)
}

// write dumps the spans with the run's stamp as one JSON document.
func (t *tracer) write(path string, stamp any) error {
	data, err := json.Marshal(struct {
		Stamp any     `json:"stamp"`
		Spans []*span `json:"spans"`
	}{stamp, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
