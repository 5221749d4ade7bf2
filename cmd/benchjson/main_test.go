package main

import "testing"

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkAdaptiveQuery/static-8  20  51234567 ns/op  1024 B/op  12 allocs/op  301.5 queries/s")
	if !ok {
		t.Fatal("result line not recognized")
	}
	if r.Name != "BenchmarkAdaptiveQuery/static" || r.CPUs != 8 {
		t.Fatalf("name/cpus = %q/%d", r.Name, r.CPUs)
	}
	if r.NsPerOp != 51234567 || r.QueriesPerSec != 301.5 || r.BytesPerOp != 1024 || r.AllocsPerOp != 12 {
		t.Fatalf("metrics mis-parsed: %+v", r)
	}
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \talex/internal/federation\t12.3s",
		"Benchmark  notanumber  1 ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("non-result line parsed as row: %q", line)
		}
	}
}

func TestThisHostIsStamped(t *testing.T) {
	h := thisHost()
	if h.NProc < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" || h.Commit == "" {
		t.Fatalf("incomplete host stamp: %+v", h)
	}
}
