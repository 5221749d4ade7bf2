package federation_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"alex/internal/core"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/server"
	"alex/internal/sparql"
)

// fixedLinks is a server.Engine that serves one link set and learns
// nothing: its first Changes are the whole set, and later ones empty.
type fixedLinks struct {
	ls      links.Set
	drained bool
}

func (*fixedLinks) BeginEpisode()                    {}
func (*fixedLinks) Feedback(links.Link, bool)        {}
func (*fixedLinks) FinishEpisode() core.EpisodeStats { return core.EpisodeStats{} }
func (*fixedLinks) Episode() int                     { return 0 }
func (*fixedLinks) Save(io.Writer) error             { return nil }
func (*fixedLinks) Restore(io.Reader) error          { return nil }

func (e *fixedLinks) Changes() (added, removed []links.Link) {
	if e.drained {
		return nil, nil
	}
	e.drained = true
	return e.ls.Slice(), nil
}

// reference is the /query response as it was built before the handler
// wrote it from ID rows: the decoded ResultSet copied into the wire
// structs.
func reference(dict *rdf.Dict, rs *federation.ResultSet, ask bool, version uint64) server.QueryResponse {
	out := server.QueryResponse{
		Vars:            rs.Vars,
		Rows:            make([]server.RowJSON, 0, len(rs.Rows)),
		SnapshotVersion: version,
	}
	if ask {
		out.Ask = &rs.Ask
	}
	for _, row := range rs.Rows {
		rj := server.RowJSON{Binding: make(map[string]server.TermJSON, len(row.Binding))}
		for v, term := range row.Binding {
			kind := "iri"
			switch term.Kind {
			case rdf.KindLiteral:
				kind = "literal"
			case rdf.KindBlank:
				kind = "blank"
			}
			rj.Binding[v] = server.TermJSON{Kind: kind, Value: term.Value, Datatype: term.Datatype, Lang: term.Lang}
		}
		for _, l := range row.Used.Slice() {
			rj.Links = append(rj.Links, server.LinkJSON{E1: dict.Term(l.E1).Value, E2: dict.Term(l.E2).Value})
		}
		out.Rows = append(out.Rows, rj)
	}
	return out
}

// encode is how every response was written: encoding/json, HTML
// escaping off, the Encoder's trailing newline.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inOrderOf returns want permuted into the order got lists the same
// rows in. The mem store iterates Go maps, so two evaluations of one
// query agree on the rows and not on their order; rows only one side
// has stay where the byte comparison will find them.
func inOrderOf(t *testing.T, want, got []server.RowJSON) []server.RowJSON {
	t.Helper()
	byEncoding := make(map[string][]server.RowJSON, len(want))
	for _, r := range want {
		k := string(encode(t, r))
		byEncoding[k] = append(byEncoding[k], r)
	}
	out := make([]server.RowJSON, 0, len(want))
	for _, r := range got {
		k := string(encode(t, r))
		if same := byEncoding[k]; len(same) > 0 {
			out = append(out, same[0])
			byEncoding[k] = same[1:]
		}
	}
	for _, missed := range byEncoding {
		out = append(out, missed...)
	}
	return out
}

// awkwardWorld holds every term kind and every byte class the string
// writer treats specially, in bindings and in link endpoints, and
// variables whose byte order is not their projection order.
func awkwardWorld(t *testing.T) federation.GoldenWorld {
	t.Helper()
	d := rdf.NewDict()
	g1, g2 := rdf.NewGraphWithDict(d), rdf.NewGraphWithDict(d)
	p, q := rdf.IRI("http://x/p"), rdf.IRI("http://y/q")
	e1, e2 := rdf.IRI("http://x/e?a=1&b=<2>"), rdf.IRI("http://y/\"quoted\"\\\u2028")
	for _, o := range []rdf.Term{
		rdf.Literal("plain"),
		rdf.Literal("quote \" backslash \\ slash / tab \t newline \n return \r bell \a nul \x00 del \x7f"),
		rdf.Literal("html <b>&amp;</b> separators \u2028 \u2029 é 日本 \U0001F600"),
		rdf.LangLiteral("bonjour", "fr"),
		rdf.TypedLiteral("7", rdf.XSDInteger),
		rdf.Blank("b0"),
		e1,
	} {
		g1.Insert(rdf.Triple{S: e1, P: p, O: o})
	}
	g2.Insert(rdf.Triple{S: e2, P: q, O: rdf.Literal("across")})
	g2.Insert(rdf.Triple{S: rdf.Blank("b1"), P: q, O: rdf.Literal("")})
	id1, _ := d.Lookup(e1)
	id2, _ := d.Lookup(e2)
	return federation.GoldenWorld{
		Name:    "awkward/mem",
		Dict:    d,
		Sources: []federation.Source{{Name: "x", Graph: g1}, {Name: "y", Graph: g2}},
		Links:   links.NewSet(links.Link{E1: id1, E2: id2}),
		Queries: map[string]string{
			"every-term":      `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`,
			"star":            `SELECT * WHERE { ?s <http://x/p> ?o . }`,
			"key-order":       `SELECT ?b ?a ?B WHERE { ?b <http://x/p> ?a . ?b <http://y/q> ?B . }`,
			"repeated-var":    `SELECT ?o ?o WHERE { ?s <http://y/q> ?o . }`,
			"unbound-in-all":  `SELECT ?s ?never WHERE { ?s <http://y/q> ?o . }`,
			"optional-misses": `SELECT ?s ?o ?z WHERE { ?s <http://x/p> ?o . OPTIONAL { ?o <http://y/q> ?z . } }`,
			"ask-true":        `ASK { ?s <http://x/p> "plain" . ?s <http://y/q> "across" . }`,
			"ask-false":       `ASK { ?s <http://y/q> "nowhere" . }`,
			"empty-select":    `SELECT ?s WHERE { ?s <http://y/q> "nowhere" . }`,
			"limit-offset":    `SELECT ?o WHERE { ?s <http://x/p> ?o . } ORDER BY ?o LIMIT 3 OFFSET 2`,
		},
	}
}

// TestWireEquivalence: for every query of the golden harness on both
// store backends, and for the awkward world, the bytes /query answers
// with are the bytes encoding/json makes of the decoded ResultSet of a
// second evaluation (its rows taken in the order the handler listed
// them), and status and headers are what they were.
func TestWireEquivalence(t *testing.T) {
	worlds := append(federation.GoldenWorlds(t), awkwardWorld(t))
	cases, withLinks := 0, 0
	for _, w := range worlds {
		srv, err := server.New(&fixedLinks{ls: w.Links}, w.Dict, w.Sources, server.Config{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		snap := srv.Snapshot()
		for name, text := range w.Queries {
			label := w.Name + "/" + name
			q, err := sparql.Parse(text)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			rec := httptest.NewRecorder()
			req := bytes.NewReader(encode(t, server.QueryRequest{Query: text}))
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", req))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", label, rec.Code, rec.Body)
			}
			body := rec.Body.Bytes()
			var got server.QueryResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("%s: %v in %s", label, err, clip(body))
			}

			rs, err := snap.Fed.EvalContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: reference evaluation: %v", label, err)
			}
			ref := reference(w.Dict, rs, q.Form == sparql.FormAsk, snap.Version)
			ref.Rows = inOrderOf(t, ref.Rows, got.Rows)
			want := encode(t, ref)
			if !bytes.Equal(body, want) {
				t.Errorf("%s: body differs from the encoder's\n got %s\nwant %s", label, clip(body), clip(want))
			}
			h := rec.Header()
			if got := h.Get("Content-Type"); got != "application/json" {
				t.Errorf("%s: Content-Type %q", label, got)
			}
			if got := h.Get("Content-Length"); got != strconv.Itoa(len(want)) {
				t.Errorf("%s: Content-Length %q for %d bytes", label, got, len(want))
			}
			cases++
			if bytes.Contains(want, []byte(`"links":[`)) {
				withLinks++
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	// The comparison means something only if the answers carry what the
	// writer has to get right.
	if withLinks == 0 {
		t.Errorf("%d cases, none with provenance: the harness lost its coverage", cases)
	}
}

// clip keeps a failure readable when a synth world answers in hundreds
// of rows.
func clip(b []byte) string {
	if len(b) > 1200 {
		return string(b[:1200]) + "…"
	}
	return string(b)
}

// TestConcurrentQueriesAnswerAsAlone: /query requests served at once by
// one server — lookups and the three join shapes of bench/e2e's
// join_disk, each evaluated in the Scratch of a pooled response buffer
// — answer byte for byte what each answered alone. A Scratch shared by
// two requests, or an answer read after its Scratch went back to the
// pool, makes some body differ, and the race detector sees the sharing.
func TestConcurrentQueriesAnswerAsAlone(t *testing.T) {
	w := federation.JoinShapeWorld(t)
	srv, err := server.New(&fixedLinks{ls: w.Links}, w.Dict, w.Sources, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	ask := func(text string) (int, []byte) {
		rec := httptest.NewRecorder()
		req := bytes.NewReader(encode(t, server.QueryRequest{Query: text}))
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", req))
		return rec.Code, rec.Body.Bytes()
	}
	var texts []string
	alone := map[string][]byte{}
	for _, text := range w.Queries {
		code, body := ask(text)
		if code != http.StatusOK || !bytes.Contains(body, []byte(`"rows":[{`)) {
			t.Fatalf("%s: status %d, body %s", text, code, clip(body))
		}
		texts = append(texts, text)
		alone[text] = body
	}
	const goroutines, rounds = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*len(texts); i++ {
				text := texts[(i*(2*g+1)+7*g)%len(texts)]
				if code, body := ask(text); code != http.StatusOK || !bytes.Equal(body, alone[text]) {
					t.Errorf("goroutine %d: %s answered %d\n%s\nalone\n%s", g, text, code, clip(body), clip(alone[text]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
