// Package suite assembles alexlint's analyzer set. cmd/alexlint runs it
// from the command line; suite_test.go runs it over the whole module so
// a plain `go test ./...` also fails on any invariant violation.
package suite

import (
	"alex/internal/analysis"
	"alex/internal/analysis/globalrand"
	"alex/internal/analysis/snapmut"
	"alex/internal/analysis/syncerr"
)

// Analyzers is the full alexlint suite, in the order findings are
// attributed. Each analyzer carries its own package scope (Match).
var Analyzers = []*analysis.Analyzer{
	snapmut.Analyzer,
	syncerr.Analyzer,
	globalrand.Analyzer,
}
