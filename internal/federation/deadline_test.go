package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

// crossWorld is a federation of one source of 3 001 triples that cannot
// fail, so that nothing but the evaluator's own checks stops a query
// over it. A two-pattern cross product is 9 × 10⁶ rows: seconds of work
// and a gigabyte of rows if nothing does, but finite.
func crossWorld() *Federator {
	g := rdf.NewGraph()
	for i := 0; i < 3001; i++ {
		g.Insert(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://x/s%d", i)), P: rdf.IRI("http://x/p"), O: rdf.Literal(fmt.Sprint(i))})
	}
	return Single(g)
}

const crossProduct = `SELECT ?a WHERE { ?a ?b ?c . ?d ?e ?f . }`

// stepContext is a context that is done, with err, from its n-th Err
// call on. The evaluator only ever polls its context, so this stops an
// evaluation at an exact step.
type stepContext struct {
	context.Context
	n   int
	err error
}

func (c *stepContext) Err() error {
	if c.n--; c.n > 0 {
		return nil
	}
	return c.err
}

// countFilter is a FILTER expression that counts the rows it is shown
// and calls first on the first of them.
type countFilter struct {
	first func()
	calls int
}

func (c *countFilter) Eval(sparql.Binding) (sparql.Value, error) {
	if c.calls == 0 {
		c.first()
	}
	c.calls++
	return sparql.Value{Kind: sparql.ValBool, Bool: true}, nil
}

func (c *countFilter) ExprVars() []string { return nil }

// TestEvaluateStopsAtDeadline: the evaluator stops itself. Whichever
// stage the context's end finds it in, Evaluate returns the context's
// error, and no answer, within one check interval — here, well inside
// 250 ms of a 20 ms deadline on queries that would run for seconds.
func TestEvaluateStopsAtDeadline(t *testing.T) {
	f := crossWorld()
	const deadline, within = 20 * time.Millisecond, 250 * time.Millisecond
	timeout := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), deadline)
	}
	for _, tc := range []struct {
		name, query string
		ctx         func() (context.Context, context.CancelFunc)
		want        error
	}{
		{"pattern", crossProduct, timeout, context.DeadlineExceeded},
		{"optional", `SELECT ?a WHERE { ?a ?b ?c . OPTIONAL { ?d ?e ?f . } }`, timeout, context.DeadlineExceeded},
		{"cancelled-before", crossProduct, func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}, context.Canceled},
		// What a client's disconnect does to its request's context.
		{"cancelled-during", crossProduct, func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(deadline, cancel)
			return ctx, cancel
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			ans, err := f.Evaluate(ctx, tc.query)
			if took := time.Since(start); !errors.Is(err, tc.want) || ans != nil || took > within {
				t.Fatalf("Evaluate: answer %t, err %v, after %v; want no answer and %v within %v", ans != nil, err, took, tc.want, within)
			}
		})
	}

	// No query of this size spends its time in a FILTER, so there the
	// deadline passes by decree, while the stage is on the first of the
	// source's rows: it may finish the interval it is in, no more.
	t.Run("filter", func(t *testing.T) {
		q, err := sparql.Parse(`SELECT ?a WHERE { ?a ?b ?c . }`)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &stepContext{Context: context.Background(), n: math.MaxInt, err: context.DeadlineExceeded}
		flt := &countFilter{first: func() { ctx.n = 0 }}
		q.Where.Filters = append(q.Where.Filters, flt)
		rs, err := f.EvalContext(ctx, q)
		if !errors.Is(err, context.DeadlineExceeded) || rs != nil {
			t.Fatalf("EvalContext: answer %t, err %v; want no answer and %v", rs != nil, err, context.DeadlineExceeded)
		}
		if flt.calls == 0 || flt.calls > checkInterval {
			t.Errorf("the FILTER saw %d rows; want it reached, and stopped within %d", flt.calls, checkInterval)
		}
	})
}

// TestCancelledQueryLearnsNothing: a stopped evaluation leaves nothing
// a later one reads. Its row counts belonged to it alone, and its plan
// stays cached exactly as compiled, so a half-run stage cannot steer
// another query's order. The fifth look at the context comes after the
// first pattern's stage has run whole (3 001 rows out of one) and a few
// rows into the second's.
func TestCancelledQueryLearnsNothing(t *testing.T) {
	f := crossWorld()
	f.SetPlanCache(NewPlanCache(4))
	ans, err := f.Evaluate(&stepContext{Context: context.Background(), n: 5, err: context.Canceled}, crossProduct)
	if !errors.Is(err, context.Canceled) || ans != nil {
		t.Fatalf("Evaluate: answer %t, err %v; want no answer and %v", ans != nil, err, context.Canceled)
	}
	s, ok := sparql.Shape{}.Scan(crossProduct)
	if !ok {
		t.Fatal("the cross product does not lex")
	}
	p := f.plans.get(s.Key)
	if hits, misses := f.plans.Stats(); p == nil || hits != 1 || misses != 1 {
		t.Fatalf("%d cache hits, %d misses: the stopped query's plan was not cached", hits, misses)
	}
	q, err := sparql.Parse(crossProduct)
	if err != nil {
		t.Fatal(err)
	}
	fresh := f.planQuery(q, s.Consts)
	if !reflect.DeepEqual(p.pats, fresh.pats) || !reflect.DeepEqual(p.binds, fresh.binds) || p.ranks != fresh.ranks {
		t.Errorf("the stopped query's plan is not the one compiling the text makes")
	}
}
