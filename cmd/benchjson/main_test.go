package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

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

func TestAnnotateDeltas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_query.json")
	prev := []Row{
		{Name: "BenchmarkFederatedQuery/warm", CPUs: 4, NsPerOp: 1000},
		{Name: "BenchmarkFederatedQuery/warm", CPUs: 8, NsPerOp: 2000},
	}
	data, err := json.Marshal(File{Host: thisHost(), Rows: prev})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rows := []Row{
		{Name: "BenchmarkFederatedQuery/warm", CPUs: 4, NsPerOp: 1100},   // +10%
		{Name: "BenchmarkFederatedQuery/warm", CPUs: 8, NsPerOp: 1000},   // -50%
		{Name: "BenchmarkAdaptiveQuery/adaptive", CPUs: 4, NsPerOp: 500}, // new row
	}
	annotateDeltas(rows, path)
	if got := rows[0].DeltaVsPrev; got != "+10.0%" {
		t.Fatalf("delta[0] = %q, want +10.0%%", got)
	}
	if got := rows[1].DeltaVsPrev; got != "-50.0%" {
		t.Fatalf("delta[1] = %q, want -50.0%%", got)
	}
	if got := rows[2].DeltaVsPrev; got != "" {
		t.Fatalf("delta for new row = %q, want empty", got)
	}

	// A previous file from before the host stamp is a bare row array.
	data, err = json.Marshal(prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	bare := []Row{{Name: "BenchmarkFederatedQuery/warm", CPUs: 4, NsPerOp: 1100}}
	annotateDeltas(bare, path)
	if got := bare[0].DeltaVsPrev; got != "+10.0%" {
		t.Fatalf("delta against an unstamped file = %q, want +10.0%%", got)
	}

	// No previous file: all deltas stay empty.
	fresh := []Row{{Name: "X", CPUs: 1, NsPerOp: 10}}
	annotateDeltas(fresh, filepath.Join(t.TempDir(), "missing.json"))
	if fresh[0].DeltaVsPrev != "" {
		t.Fatalf("delta with no previous file = %q, want empty", fresh[0].DeltaVsPrev)
	}
}

func TestThisHostIsStamped(t *testing.T) {
	h := thisHost()
	if h.NProc < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" || h.Commit == "" {
		t.Fatalf("incomplete host stamp: %+v", h)
	}
}
