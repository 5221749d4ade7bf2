package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"alex/internal/rdf"
)

type binaryOp uint8

const (
	opEq binaryOp = iota
	opNeq
	opLt
	opLte
	opGt
	opGte
	opAnd
	opOr
)

func mustParseFloat(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return f
}

// constExpr is a constant of a FILTER; lift says which of the text's
// constants it is, if it is one (see BindExpr).
type constExpr struct {
	v    Value
	lift Lift
}

func (e *constExpr) Eval(Binding) (Value, error) { return e.v, nil }
func (e *constExpr) ExprVars() []string          { return nil }

type varExpr struct{ name string }

func (e *varExpr) Eval(b Binding) (Value, error) {
	t, ok := b[e.name]
	if !ok {
		return Value{}, fmt.Errorf("unbound variable ?%s", e.name)
	}
	return Value{Kind: ValTerm, Term: t}, nil
}
func (e *varExpr) ExprVars() []string { return []string{e.name} }

type notExpr struct{ inner Expr }

func (e *notExpr) Eval(b Binding) (Value, error) {
	bv, err := evalBool(e.inner, b)
	if err != nil {
		return Value{}, err
	}
	return Value{Kind: ValBool, Bool: !bv}, nil
}

// evalBool is the effective boolean value of x under b.
func evalBool(x Expr, b Binding) (bool, error) {
	v, err := x.Eval(b)
	if err != nil {
		return false, err
	}
	return EffectiveBool(v)
}
func (e *notExpr) ExprVars() []string { return e.inner.ExprVars() }

type binaryExpr struct {
	op   binaryOp
	l, r Expr
}

func (e *binaryExpr) ExprVars() []string {
	return append(e.l.ExprVars(), e.r.ExprVars()...)
}

func (e *binaryExpr) Eval(b Binding) (Value, error) {
	switch e.op {
	case opAnd, opOr:
		// SPARQL three-valued logic: a side that decides the answer —
		// false for AND, true for OR — wins over an error on the other;
		// otherwise an error propagates.
		decides := e.op == opOr
		lb, lerr := evalBool(e.l, b)
		rb, rerr := evalBool(e.r, b)
		switch {
		case lerr == nil && lb == decides || rerr == nil && rb == decides:
			return Value{Kind: ValBool, Bool: decides}, nil
		case lerr != nil:
			return Value{}, lerr
		case rerr != nil:
			return Value{}, rerr
		}
		return Value{Kind: ValBool, Bool: !decides}, nil
	default:
		lv, err := e.l.Eval(b)
		if err != nil {
			return Value{}, err
		}
		rv, err := e.r.Eval(b)
		if err != nil {
			return Value{}, err
		}
		return compareValues(e.op, lv, rv)
	}
}

// EffectiveBool is SPARQL's effective boolean value of v.
func EffectiveBool(v Value) (bool, error) {
	switch v.Kind {
	case ValBool:
		return v.Bool, nil
	case ValNumber:
		return v.Num != 0, nil
	case ValString:
		return v.Str != "", nil
	case ValTerm:
		if v.Term.IsLiteral() {
			switch v.Term.EffectiveDatatype() {
			case rdf.XSDBoolean:
				return v.Term.Value == "true" || v.Term.Value == "1", nil
			case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
				f, ok := parseFloat(v.Term.Value)
				return ok && f != 0, nil
			default:
				return v.Term.Value != "", nil
			}
		}
		return false, fmt.Errorf("no effective boolean value for %v", v.Term)
	}
	return false, fmt.Errorf("invalid value")
}

// asNumber attempts numeric interpretation of a value: a number, or a
// string or literal strconv.ParseFloat accepts.
func asNumber(v Value) (float64, bool) {
	switch v.Kind {
	case ValNumber:
		return v.Num, true
	case ValString:
		return parseFloat(v.Str)
	case ValTerm:
		if v.Term.IsLiteral() {
			return parseFloat(v.Term.Value)
		}
	}
	return 0, false
}

// parseFloat is strconv.ParseFloat(s, 64), ok when its error is nil.
// Most literals a FILTER compares are no number (a date, a name), and
// ParseFloat's error is an allocation each, so s is refused first when
// it holds a byte no float is written with, or a sign other than a
// leading one or one after an exponent letter.
func parseFloat(s string) (float64, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '+' || c == '-':
			if i > 0 && strings.IndexByte("eEpP", s[i-1]) < 0 {
				return 0, false
			}
		case strings.IndexByte("0123456789._abcdefinptxyABCDEFINPTXY", c) < 0:
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// asString returns the string form of a value.
func asString(v Value) string {
	switch v.Kind {
	case ValString:
		return v.Str
	case ValNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case ValBool:
		if v.Bool {
			return "true"
		}
		return "false"
	default:
		return v.Term.Value
	}
}

func compareValues(op binaryOp, l, r Value) (Value, error) {
	// Term-vs-term equality compares full terms (IRI vs IRI etc.).
	if l.Kind == ValTerm && r.Kind == ValTerm && !l.Term.IsLiteral() && !r.Term.IsLiteral() {
		eq := l.Term == r.Term
		switch op {
		case opEq:
			return Value{Kind: ValBool, Bool: eq}, nil
		case opNeq:
			return Value{Kind: ValBool, Bool: !eq}, nil
		default:
			return Value{}, fmt.Errorf("cannot order non-literal terms")
		}
	}
	// Prefer numeric comparison when both sides are numbers.
	if lf, lok := asNumber(l); lok {
		if rf, rok := asNumber(r); rok {
			return Value{Kind: ValBool, Bool: holds(op, lf, rf)}, nil
		}
	}
	return Value{Kind: ValBool, Bool: holds(op, asString(l), asString(r))}, nil
}

// holds reports whether a op b, by the operators of T: a NaN is
// unequal to, and unordered with, everything.
func holds[T float64 | string](op binaryOp, a, b T) bool {
	switch op {
	case opEq:
		return a == b
	case opNeq:
		return a != b
	case opLt:
		return a < b
	case opLte:
		return a <= b
	case opGt:
		return a > b
	case opGte:
		return a >= b
	}
	return false
}

// funcExpr is a builtin function call.
type funcExpr struct {
	name string
	args []Expr
}

var funcArity = map[string]int{
	"BOUND":     1,
	"STR":       1,
	"LANG":      1,
	"DATATYPE":  1,
	"ISIRI":     1,
	"ISURI":     1,
	"ISLITERAL": 1,
	"ISBLANK":   1,
	"LCASE":     1,
	"UCASE":     1,
	"STRLEN":    1,
	"CONTAINS":  2,
	"STRSTARTS": 2,
	"STRENDS":   2,
	"REGEX":     -2, // 2 or 3 args
	"SAMETERM":  2,
}

func knownFunc(name string) bool {
	_, ok := funcArity[name]
	return ok
}

func newFuncExpr(name string, args []Expr) (Expr, error) {
	want := funcArity[name]
	switch {
	case want == -2:
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("sparql: %s expects 2 or 3 arguments, got %d", name, len(args))
		}
	case len(args) != want:
		return nil, fmt.Errorf("sparql: %s expects %d arguments, got %d", name, want, len(args))
	}
	return &funcExpr{name: name, args: args}, nil
}

func (e *funcExpr) ExprVars() []string {
	var out []string
	for _, a := range e.args {
		out = append(out, a.ExprVars()...)
	}
	return out
}

func (e *funcExpr) Eval(b Binding) (Value, error) {
	if e.name == "BOUND" {
		ve, ok := e.args[0].(*varExpr)
		if !ok {
			return Value{}, fmt.Errorf("BOUND requires a variable argument")
		}
		_, bound := b[ve.name]
		return Value{Kind: ValBool, Bool: bound}, nil
	}
	vals := make([]Value, len(e.args))
	for i, a := range e.args {
		v, err := a.Eval(b)
		if err != nil {
			return Value{}, err
		}
		vals[i] = v
	}
	switch e.name {
	case "STR":
		return Value{Kind: ValString, Str: asString(vals[0])}, nil
	case "LANG":
		if vals[0].Kind == ValTerm && vals[0].Term.IsLiteral() {
			return Value{Kind: ValString, Str: vals[0].Term.Lang}, nil
		}
		return Value{Kind: ValString}, nil
	case "DATATYPE":
		if vals[0].Kind == ValTerm && vals[0].Term.IsLiteral() {
			return Value{Kind: ValTerm, Term: rdf.IRI(vals[0].Term.EffectiveDatatype())}, nil
		}
		return Value{}, fmt.Errorf("DATATYPE of non-literal")
	case "ISIRI", "ISURI":
		return Value{Kind: ValBool, Bool: vals[0].Kind == ValTerm && vals[0].Term.IsIRI()}, nil
	case "ISLITERAL":
		return Value{Kind: ValBool, Bool: vals[0].Kind == ValTerm && vals[0].Term.IsLiteral() || vals[0].Kind == ValString || vals[0].Kind == ValNumber}, nil
	case "ISBLANK":
		return Value{Kind: ValBool, Bool: vals[0].Kind == ValTerm && vals[0].Term.IsBlank()}, nil
	case "LCASE":
		return Value{Kind: ValString, Str: strings.ToLower(asString(vals[0]))}, nil
	case "UCASE":
		return Value{Kind: ValString, Str: strings.ToUpper(asString(vals[0]))}, nil
	case "STRLEN":
		return Value{Kind: ValNumber, Num: float64(len([]rune(asString(vals[0]))))}, nil
	case "CONTAINS":
		return Value{Kind: ValBool, Bool: strings.Contains(asString(vals[0]), asString(vals[1]))}, nil
	case "STRSTARTS":
		return Value{Kind: ValBool, Bool: strings.HasPrefix(asString(vals[0]), asString(vals[1]))}, nil
	case "STRENDS":
		return Value{Kind: ValBool, Bool: strings.HasSuffix(asString(vals[0]), asString(vals[1]))}, nil
	case "SAMETERM":
		if vals[0].Kind == ValTerm && vals[1].Kind == ValTerm {
			return Value{Kind: ValBool, Bool: vals[0].Term == vals[1].Term}, nil
		}
		return Value{Kind: ValBool, Bool: asString(vals[0]) == asString(vals[1])}, nil
	case "REGEX":
		return evalRegex(vals)
	}
	return Value{}, fmt.Errorf("unimplemented function %s", e.name)
}

// evalRegex implements REGEX with the "i" flag, using substring matching
// semantics for plain patterns and anchoring for ^ and $. Full regular
// expression syntax is intentionally unsupported to stay stdlib-light;
// CONTAINS/STRSTARTS/STRENDS cover the workloads in this repo.
func evalRegex(vals []Value) (Value, error) {
	text := asString(vals[0])
	pat := asString(vals[1])
	if len(vals) == 3 && strings.Contains(asString(vals[2]), "i") {
		text = strings.ToLower(text)
		pat = strings.ToLower(pat)
	}
	anchStart := strings.HasPrefix(pat, "^")
	anchEnd := strings.HasSuffix(pat, "$")
	pat = strings.TrimPrefix(pat, "^")
	pat = strings.TrimSuffix(pat, "$")
	var ok bool
	switch {
	case anchStart && anchEnd:
		ok = text == pat
	case anchStart:
		ok = strings.HasPrefix(text, pat)
	case anchEnd:
		ok = strings.HasSuffix(text, pat)
	default:
		ok = strings.Contains(text, pat)
	}
	return Value{Kind: ValBool, Bool: ok}, nil
}
