package federation

import (
	"context"

	"alex/internal/rdf"
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
	a, err := Single(g).evalText(context.Background(), query)
	if err != nil {
		return nil, err
	}
	return a.Result(), nil
}

// Construct evaluates a CONSTRUCT query against one store and returns
// the constructed triples as a new graph sharing the store's
// dictionary; LIMIT bounds the number of distinct triples.
func Construct(g store.TripleStore, query string) (*rdf.Graph, error) {
	cq, err := sparql.ParseConstruct(query)
	if err != nil {
		return nil, err
	}
	rs, err := Single(g).Eval(&sparql.Query{Where: cq.Where, Limit: -1})
	if err != nil {
		return nil, err
	}
	out := rdf.NewGraphWithDict(g.Dict())
	for _, r := range rs.Rows {
		for _, tri := range cq.Instantiate(r.Binding) {
			if cq.Limit >= 0 && out.Size() >= cq.Limit {
				return out, nil
			}
			out.Insert(tri)
		}
	}
	return out, nil
}
