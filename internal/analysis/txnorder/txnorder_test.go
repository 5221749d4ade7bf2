package txnorder_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alex/internal/analysis"
	"alex/internal/analysis/analysistest"
	"alex/internal/analysis/txnorder"
)

func TestTxnorder(t *testing.T) {
	analysistest.Run(t, txnorder.Analyzer,
		"testdata/src/a", // acks racing their asynchronous fan-out (the PR-7 shape)
		"testdata/src/b", // durable writes that dominate the ack
	)
}

// TestCatchesFanoutAckMutation is the analyzer's reason to exist,
// demonstrated on the production source: take the real internal/fleet
// package, move handleFeedback's 202 ahead of the wg.Wait() that
// collects every owner's ack, and the analyzer must flag exactly that
// regression — while staying silent on the pristine copy.
func TestCatchesFanoutAckMutation(t *testing.T) {
	pristine := copyFleetPackage(t, nil)
	if findings := runTxnorder(t, pristine); len(findings) != 0 {
		t.Fatalf("pristine internal/fleet copy has %d txnorder findings, want 0: %v", len(findings), findings)
	}

	const gather = "\twg.Wait()\n"
	const earlyAck = "\twriteJSON(w, http.StatusAccepted, server.FeedbackResponse{Queued: true, Links: len(fr.Links)})\n" + gather
	mutated := copyFleetPackage(t, func(name, src string) string {
		if name != "router.go" {
			return src
		}
		if strings.Count(src, gather) != 1 {
			t.Fatalf("router.go no longer contains exactly one %q; update the mutation", gather)
		}
		return strings.Replace(src, gather, earlyAck, 1)
	})
	findings := runTxnorder(t, mutated)
	if len(findings) != 1 {
		t.Fatalf("mutated internal/fleet copy has %d txnorder findings, want exactly the early ack: %v", len(findings), findings)
	}
	f := findings[0]
	if filepath.Base(f.Pos.Filename) != "router.go" || !strings.Contains(f.Message, "202 Accepted on the fan-out path") {
		t.Fatalf("unexpected finding for the early-ack mutation: %s: %s", f.Pos, f.Message)
	}
}

// copyFleetPackage clones internal/fleet's non-test sources into a
// fresh package directory under testdata (inside the module, so the
// loader resolves its alex/ imports), applying mutate to each file.
func copyFleetPackage(t *testing.T, mutate func(name, src string) string) string {
	t.Helper()
	dir, err := os.MkdirTemp("testdata", "fleetcopy-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })

	const fleetDir = "../../fleet"
	entries, err := os.ReadDir(fleetDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(fleetDir, name))
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		if mutate != nil {
			src = mutate(name, src)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runTxnorder(t *testing.T, dir string) []analysis.Finding {
	t.Helper()
	res, err := analysis.Load("", "./"+dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(res.Pkgs) != 1 {
		t.Fatalf("loaded %d packages from %s, want 1", len(res.Pkgs), dir)
	}
	unscoped := *txnorder.Analyzer
	unscoped.Match = nil
	findings, err := analysis.Run(res.Pkgs[0], res.Facts, []*analysis.Analyzer{&unscoped})
	if err != nil {
		t.Fatalf("running txnorder on %s: %v", dir, err)
	}
	return findings
}
