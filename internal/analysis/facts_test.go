package analysis_test

import (
	"strings"
	"testing"

	"alex/internal/analysis"
)

const demoPath = "alex/internal/analysis/testdata/src/factsdemo"

func loadDemoFacts(t *testing.T) *analysis.FactSet {
	t.Helper()
	res, err := analysis.Load("", "./testdata/src/factsdemo")
	if err != nil {
		t.Fatalf("loading factsdemo: %v", err)
	}
	return res.Facts
}

func demoFacts(t *testing.T, facts *analysis.FactSet, fn string) analysis.FuncFacts {
	t.Helper()
	f, ok := facts.Lookup(demoPath + "." + fn)
	if !ok {
		t.Fatalf("no facts recorded for %s", fn)
	}
	return f
}

func TestFactPropagation(t *testing.T) {
	facts := loadDemoFacts(t)

	direct := demoFacts(t, facts, "fetches")
	if !direct.Outbound {
		t.Errorf("fetches: got %+v, want Outbound", direct)
	}

	transitive := demoFacts(t, facts, "callsFetcher")
	if !transitive.Outbound {
		t.Errorf("callsFetcher: Outbound did not propagate: %+v", transitive)
	}
	if !strings.Contains(transitive.OutboundVia, "fetches") {
		t.Errorf("callsFetcher: OutboundVia %q does not name the callee", transitive.OutboundVia)
	}

	j := demoFacts(t, facts, "journals")
	if !j.Journals || !strings.Contains(j.JournalsVia, "Append") {
		t.Errorf("journals: got %+v, want Journals via (*wal.Log).Append", j)
	}

	a := demoFacts(t, facts, "callsAcks")
	if !a.AcksHTTP {
		t.Errorf("callsAcks: AcksHTTP did not propagate: %+v", a)
	}

	if f, ok := facts.Lookup(demoPath + ".pure"); ok && (f.Outbound || f.Journals || f.AcksHTTP) {
		t.Errorf("pure: spurious facts %+v", f)
	}
}

// TestGoroutineBoundary is the PR-7 lesson as a unit test: work behind
// a `go` statement is asynchronous, so none of its effects — fetching,
// journaling — may be credited to the launcher.
func TestGoroutineBoundary(t *testing.T) {
	facts := loadDemoFacts(t)
	if f, ok := facts.Lookup(demoPath + ".launches"); ok {
		if f.Journals {
			t.Errorf("launches: goroutine journaling credited to the launcher: %+v", f)
		}
		if f.Outbound {
			t.Errorf("launches: goroutine fetching credited to the launcher: %+v", f)
		}
	}
}

func TestHasCtxSignatures(t *testing.T) {
	facts := loadDemoFacts(t)
	if f := demoFacts(t, facts, "hasCtx"); !f.HasCtx {
		t.Errorf("hasCtx: context.Context parameter not detected: %+v", f)
	}
	if f := demoFacts(t, facts, "hasReq"); !f.HasCtx {
		t.Errorf("hasReq: *http.Request parameter not detected: %+v", f)
	}
	if f, ok := facts.Lookup(demoPath + ".pure"); ok && f.HasCtx {
		t.Errorf("pure: spurious HasCtx: %+v", f)
	}
	// HasCtx is a signature property, never propagated: callsHasCtx
	// calls hasCtx but must not inherit it.
	if f, ok := facts.Lookup(demoPath + ".callsHasCtx"); ok && f.HasCtx {
		t.Errorf("callsHasCtx: HasCtx wrongly propagated: %+v", f)
	}
}
