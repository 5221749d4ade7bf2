package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"alex/internal/server"
)

func TestHighPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n          int
		want, used float64
	}{
		{2000, 1980, 0.99}, // p99 has 20 beyond it
		{1000, 990, 0.99},  // exactly ten beyond
		{500, 490, 0.98},   // p99 would leave 5: fall back to the highest with ten
		{11, 1, 1.0 / 11},  // only the minimum has ten beyond
		{10, 5.5, 0.5},     // nothing qualifies: median
	} {
		got, used := highPercentile(seq(tc.n), 0.99)
		if got != tc.want || used != tc.used {
			t.Errorf("n=%d: got %v at quantile %v, want %v at %v", tc.n, got, used, tc.want, tc.used)
		}
	}
}

func TestKthBest(t *testing.T) {
	vals := []float64{5, 1, 8, 3, 7, 2, 6, 4}
	if got := kthBest(vals, 3, false); got != 3 {
		t.Errorf("3rd lowest = %v, want 3", got)
	}
	if got := kthBest(vals, 3, true); got != 6 {
		t.Errorf("3rd highest = %v, want 6", got)
	}
	if got := kthBest(vals[:2], 3, false); got != 5 {
		t.Errorf("k beyond the count = %v, want the worst, 5", got)
	}
	if !reflect.DeepEqual(vals, []float64{5, 1, 8, 3, 7, 2, 6, 4}) {
		t.Error("kthBest reordered its input")
	}
}

// Python: statistics.quantiles([12, 15, 11, 19, 14, 13, 18, 17, 16, 10], n=4)
// is [11.75, 14.5, 17.25], so the spread is 5.5/14.5.
func TestIQRPctIsPythonsExclusiveQuantiles(t *testing.T) {
	got := iqrPct([]float64{12, 15, 11, 19, 14, 13, 18, 17, 16, 10})
	if want := 100 * 5.5 / 14.5; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("iqrPct = %v, want %v", got, want)
	}
}

func TestCanonAnswerIgnoresOrderButNotContent(t *testing.T) {
	row := func(n string, ls ...server.LinkJSON) server.RowJSON {
		return server.RowJSON{Binding: map[string]server.TermJSON{"n": {Kind: "literal", Value: n}}, Links: ls}
	}
	a, b := server.LinkJSON{E1: "e1", E2: "r1"}, server.LinkJSON{E1: "e1", E2: "r2"}
	base := canonAnswer([]server.RowJSON{row("x", a, b), row("y", a)})
	if canonAnswer([]server.RowJSON{row("y", a), row("x", b, a)}) != base {
		t.Error("row or link order changed the digest")
	}
	for name, other := range map[string][]server.RowJSON{
		"dropped link":   {row("x", a), row("y", a)},
		"moved link":     {row("x", a), row("y", a, b)},
		"dropped row":    {row("x", a, b)},
		"duplicated row": {row("x", a, b), row("y", a), row("y", a)},
		"changed value":  {row("x", a, b), row("z", a)},
	} {
		if canonAnswer(other) == base {
			t.Errorf("%s left the digest unchanged", name)
		}
	}
	// Length prefixes keep field boundaries: ("ab","c") is not ("a","bc").
	if canonAnswer([]server.RowJSON{row("x", server.LinkJSON{E1: "ab", E2: "c"})}) ==
		canonAnswer([]server.RowJSON{row("x", server.LinkJSON{E1: "a", E2: "bc"})}) {
		t.Error("field boundaries are not part of the digest")
	}
}

const testScale = 0.05

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	n, err := startNode(nodeSpec{scale: testScale}, spans{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.stop() //nolint:errcheck // read-only node
	for _, w := range workloads {
		a, b, c := opListBytes(opList(w, n, 7)), opListBytes(opList(w, n, 7)), opListBytes(opList(w, n, 8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: equal seeds gave different op lists", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same op list", w.name)
		}
		if !w.feedback {
			continue
		}
		// The client cycles through the list: it must hold the mix exactly,
		// a post after every lookupsPerPost lookups, to its last op.
		for i, o := range opList(w, n, 7) {
			if post := i%(lookupsPerPost+1) == lookupsPerPost; post == o.isQuery() {
				t.Fatalf("%s: op %d is a %s", w.name, i, shapeNames[o.shape])
			}
		}
	}
}

func TestFleetGoldenIsLookupGolden(t *testing.T) {
	a, err := goldenFS.ReadFile("golden/lookup_mem.seed1.sha256")
	if err != nil {
		t.Fatal(err)
	}
	b, err := goldenFS.ReadFile("golden/fleet3.seed1.sha256")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("fleet3 sends lookup_mem's ops; the router must return lookup_mem's answers")
	}
}

// TestSmoke runs every workload once each way at a tiny scale and holds
// the printed metrics to BENCHMARK.json: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1, each once, each
// with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range bf.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json says %s was chosen for %q, the harness for %q", w.Name, w.Why, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", names, workloadNames())
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		if _, dup := want[true][m.Name]; dup {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		w.segOps = 60 // short segments: the smoke checks what is printed, not how long it took
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 3, seconds: 1, trace: traced, scale: testScale, tmpRoot: t.TempDir(), outDir: t.TempDir()}
			res, err := run(w, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s traced=%v: metrics differ from BENCHMARK.json\n got  %v\n want %v", w.name, traced, sortedKeys(got), sortedKeys(want[traced]))
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}
