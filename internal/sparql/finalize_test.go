package sparql

import (
	"testing"

	"alex/internal/rdf"
)

// TestDistinctSeparatesNULSplitRows: two distinct rows whose rendered
// terms concatenate to the same bytes around a NUL separator (IRIs may
// contain NUL) must both survive DISTINCT; a true duplicate must not.
func TestDistinctSeparatesNULSplitRows(t *testing.T) {
	q := &Query{Vars: []string{"a", "b"}, Distinct: true, Limit: -1}
	left := Binding{"a": rdf.IRI("x"), "b": rdf.IRI("y>\x00<z")}
	right := Binding{"a": rdf.IRI("x>\x00<y"), "b": rdf.IRI("z")}
	res, err := Finalize(q, []Binding{left, right, left.Copy()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT kept %d rows, want 2: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0]["b"] != left["b"] || res.Rows[1]["b"] != right["b"] {
		t.Fatalf("DISTINCT kept the wrong rows: %v", res.Rows)
	}
}
