// Package suite assembles alexlint's analyzer set. cmd/alexlint runs it
// from the command line; suite_test.go runs it over the whole module so
// a plain `go test ./...` also fails on any invariant violation.
package suite

import (
	"alex/internal/analysis"
	"alex/internal/analysis/ackorder"
	"alex/internal/analysis/ctxflow"
	"alex/internal/analysis/globalrand"
	"alex/internal/analysis/gotrack"
	"alex/internal/analysis/snapmut"
	"alex/internal/analysis/syncerr"
)

// Analyzers is the full alexlint suite, in the order findings are
// attributed. Each analyzer carries its own package scope (Match);
// ackorder and ctxflow consume the interprocedural facts the loader
// computes.
var Analyzers = []*analysis.Analyzer{
	snapmut.Analyzer,
	ackorder.Analyzer,
	syncerr.Analyzer,
	globalrand.Analyzer,
	gotrack.Analyzer,
	ctxflow.Analyzer,
}
