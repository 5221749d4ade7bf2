package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestQueryMetricsExposition drives the /query endpoint and asserts the
// per-query observability surface: latency histogram, rows-returned
// counter, and the plan-cache hit/miss counters, all visible on
// /metrics in Prometheus text format.
func TestQueryMetricsExposition(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	_, ts, client := newTestServer(t, sys, dict, sources, Config{
		FlushInterval: 20 * time.Millisecond,
		PlanCacheSize: 8,
	})

	q := `SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`
	for i := 0; i < 3; i++ {
		res, err := client.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(res.Rows))
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		// Three identical queries: one plan compiled, two cache hits.
		"# TYPE alexd_plan_cache_hits_total counter",
		"alexd_plan_cache_hits_total 2",
		"# TYPE alexd_plan_cache_misses_total counter",
		"alexd_plan_cache_misses_total 1",
		"alexd_plan_cache_entries 1",
		// One answer row per query.
		"alexd_query_rows_total 3",
		"alexd_queries_total 3",
		// Latency histogram observed every evaluation.
		"# TYPE alexd_query_duration_seconds histogram",
		"alexd_query_duration_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

// TestAdaptiveMetricsExposition drives /query and asserts the ranker's
// observability surface: mid-query re-rankings, learned-plan hits, and
// plan-cache evictions.
func TestAdaptiveMetricsExposition(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	_, ts, client := newTestServer(t, sys, dict, sources, Config{
		FlushInterval: 20 * time.Millisecond,
		PlanCacheSize: 1,
	})

	// Two stages => one re-ranking per evaluation; the second run of
	// the same text starts from the cached plan's observations.
	q := `SELECT ?l ?n WHERE {
		<http://ds1/a1> <http://ds1/label> ?l .
		<http://ds1/a1> <http://ds2/name> ?n .
	}`
	for i := 0; i < 2; i++ {
		res, err := client.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(res.Rows))
		}
	}
	// A second query text overflows the single-entry cache.
	if _, err := client.Query(`SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE alexd_replans_total counter",
		"alexd_replans_total 2",
		"# TYPE alexd_plan_learned_hits_total counter",
		"alexd_plan_learned_hits_total 1",
		"# TYPE alexd_plan_cache_evictions_total counter",
		"alexd_plan_cache_evictions_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

// TestQueryMetricsCacheDistinctQueries checks that distinct query texts
// occupy distinct plan-cache entries.
func TestQueryMetricsCacheDistinctQueries(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	s, _, client := newTestServer(t, sys, dict, sources, Config{
		FlushInterval: 20 * time.Millisecond,
	})

	queries := []string{
		`SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`,
		`SELECT ?e ?l WHERE { ?e <http://ds1/label> ?l . }`,
	}
	for _, q := range queries {
		if _, err := client.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.plans.Len(); got != len(queries) {
		t.Fatalf("plan cache entries = %d, want %d", got, len(queries))
	}
	hits, misses := s.plans.Stats()
	if hits != 0 || misses != uint64(len(queries)) {
		t.Fatalf("stats = %d hits / %d misses, want 0/%d", hits, misses, len(queries))
	}
}
