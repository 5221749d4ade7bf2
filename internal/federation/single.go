package federation

import (
	"context"

	"alex/internal/sparql"
	"alex/internal/store"
)

// Single returns a federator over g alone with no sameAs links: a
// single-graph query is a federation of one source, so it runs through
// the same planner and stage loop as a federated one, on either store
// backend, and its answers carry no provenance.
func Single(g store.TripleStore) *Federator {
	f := New(g.Dict())
	// Add only rejects a source over a foreign dictionary.
	_ = f.Add(Source{Name: "graph", Graph: g})
	return f
}

// Execute parses and evaluates a SELECT or ASK query against one store.
func Execute(g store.TripleStore, query string) (*sparql.Result, error) {
	a, err := Single(g).Evaluate(context.Background(), query)
	if err != nil {
		return nil, err
	}
	return a.Result(), nil
}
