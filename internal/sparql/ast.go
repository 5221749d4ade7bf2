package sparql

import (
	"alex/internal/rdf"
)

// Node is one position of a triple pattern: either a variable or a
// concrete RDF term.
type Node struct {
	IsVar bool
	Var   string
	Term  rdf.Term
	// Lift is where a parsed constant came from among the text's
	// constants (see Shape); zero for a node no constant built.
	Lift Lift
}

// VarNode returns a variable node.
func VarNode(name string) Node { return Node{IsVar: true, Var: name} }

// TermNode returns a concrete-term node.
func TermNode(t rdf.Term) Node { return Node{Term: t} }

// TriplePattern is a triple with variables allowed in any position.
type TriplePattern struct {
	S, P, O Node
}

// Vars returns the distinct variable names in the pattern.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, n := range []Node{tp.S, tp.P, tp.O} {
		if n.IsVar && !seen[n.Var] {
			seen[n.Var] = true
			out = append(out, n.Var)
		}
	}
	return out
}

// GroupGraphPattern is a group: a basic graph pattern plus filters,
// optional sub-groups and union alternatives.
type GroupGraphPattern struct {
	Triples   []TriplePattern
	Filters   []Expr
	Optionals []*GroupGraphPattern
	// Unions is a list of union groups; each inner slice holds the
	// alternatives of one { A } UNION { B } UNION { C } construct.
	Unions [][]*GroupGraphPattern
}

// OrderKey is one ORDER BY criterion.
type OrderKey struct {
	Var  string
	Desc bool
}

// QueryForm distinguishes SELECT from ASK queries.
type QueryForm uint8

// Supported query forms.
const (
	FormSelect QueryForm = iota
	FormAsk
)

// Query is a parsed SELECT or ASK query.
type Query struct {
	Form     QueryForm
	Vars     []string // empty means SELECT * (ignored for ASK)
	Distinct bool
	Where    *GroupGraphPattern
	OrderBy  []OrderKey
	Limit    int // -1 when absent
	Offset   int
	Prefixes map[string]string

	// limitLift and offsetLift say which of the text's constants the
	// LIMIT and OFFSET counts are (see Limits).
	limitLift, offsetLift Lift
}

// Expr is a FILTER expression.
type Expr interface {
	// Eval evaluates the expression under a binding. Errors represent
	// SPARQL expression errors, which make the enclosing filter false.
	Eval(b Binding) (Value, error)
	// ExprVars returns the variables mentioned by the expression.
	ExprVars() []string
}

// ValueKind tags the runtime type of an expression value.
type ValueKind uint8

// Expression value kinds.
const (
	ValBool ValueKind = iota
	ValNumber
	ValString
	ValTerm
)

// Value is the result of evaluating an expression.
type Value struct {
	Kind ValueKind
	Bool bool
	Num  float64
	Str  string
	Term rdf.Term
}

// Binding maps variable names to RDF terms.
type Binding map[string]rdf.Term

// Copy returns a shallow copy of the binding.
func (b Binding) Copy() Binding {
	out := make(Binding, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}
