package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"alex/internal/core"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/server"
)

const nameQuery = `SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }`

// newTestServer serves a two-source federation in-process: dataset 1
// holds labels, dataset 2 holds names, one correct sameAs link (a1-b1)
// and one wrong link (a2-b2w). It returns the server's address.
func newTestServer(t *testing.T) string {
	t.Helper()
	dict := rdf.NewDict()
	g1 := rdf.NewGraphWithDict(dict)
	g2 := rdf.NewGraphWithDict(dict)
	label := rdf.IRI("http://ds1/label")
	name := rdf.IRI("http://ds2/name")
	a1, a2 := rdf.IRI("http://ds1/a1"), rdf.IRI("http://ds1/a2")
	b1, b2w := rdf.IRI("http://ds2/b1"), rdf.IRI("http://ds2/b2w")
	g1.Insert(rdf.Triple{S: a1, P: label, O: rdf.Literal("alpha")})
	g1.Insert(rdf.Triple{S: a2, P: label, O: rdf.Literal("beta")})
	g2.Insert(rdf.Triple{S: b1, P: name, O: rdf.Literal("alpha prime")})
	g2.Insert(rdf.Triple{S: b2w, P: name, O: rdf.Literal("unrelated")})
	id := func(term rdf.Term) rdf.ID {
		i, ok := dict.Lookup(term)
		if !ok {
			t.Fatalf("unknown term %v", term)
		}
		return i
	}
	initial := []links.Link{{E1: id(a1), E2: id(b1)}, {E1: id(a2), E2: id(b2w)}}
	sys := core.New(g1, g2, g1.SubjectIDs(), g2.SubjectIDs(), initial, core.DefaultConfig())
	sources := []federation.Source{{Name: "ds1", Graph: g1}, {Name: "ds2", Graph: g2}}

	s, err := server.New(sys, dict, sources, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return ts.URL
}

func TestOneShotSelectApprove(t *testing.T) {
	addr := newTestServer(t)
	var out strings.Builder
	if err := run(nil, &out, addr, nameQuery, 0, -1, false); err != nil {
		t.Fatal(err)
	}
	want := "1 answers (snapshot v1):\n" +
		`[0] ?n="alpha prime" (links used: 1)` + "\n" +
		"approved answer 0 (1 links)\n"
	if out.String() != want {
		t.Fatalf("output:\n%s\nwant:\n%s", out.String(), want)
	}
	metrics, err := server.NewClient(addr).MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "\nalexd_feedback_total 1\n") {
		t.Fatalf("the server did not accept the feedback:\n%s", metrics)
	}
}

func TestOneShotAsk(t *testing.T) {
	addr := newTestServer(t)
	for q, want := range map[string]string{
		`ASK { <http://ds1/a1> <http://ds2/name> "alpha prime" . }`: "ASK -> true\n",
		`ASK { <http://ds1/a1> <http://ds2/name> "unrelated" . }`:   "ASK -> false\n",
	} {
		var out strings.Builder
		if err := run(nil, &out, addr, q, -1, -1, false); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Errorf("%s printed %q, want %q", q, out.String(), want)
		}
	}
}

func TestOneShotRejectOutOfRange(t *testing.T) {
	addr := newTestServer(t)
	var out strings.Builder
	err := run(nil, &out, addr, nameQuery, -1, 5, false)
	if err == nil || err.Error() != "reject index 5 out of range" {
		t.Fatalf("err = %v, want %q", err, "reject index 5 out of range")
	}
}

func TestREPLScript(t *testing.T) {
	addr := newTestServer(t)
	script := strings.Join([]string{"health", "links", nameQuery, "approve 0", "approve 7", "quit", "health"}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, addr, "", -1, -1, true); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"fedquery -> alexd (snapshot v1, 2 candidate links). Type 'help'.\n",
		"> ok: snapshot v1 (",
		"), episode 0, 2 links, queue 0/",
		"> 2 candidate links (snapshot v1, episode 0)\n",
		"> 1 answer(s) (snapshot v1):\n" + `[0] ?n="alpha prime" (links used: 1)` + "\n",
		"> approved 1 link(s); the server will fold it into its next episode\n",
		"> row index out of range (0..0)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "ok: snapshot"); n != 1 {
		t.Errorf("health ran %d times; quit must end the session", n)
	}
	if !strings.HasSuffix(got, "> ") {
		t.Errorf("output does not end at the prompt that read quit:\n%s", got)
	}
}
