package fleet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

var (
	stubAnswer = []byte(`{"vars":["n"],"rows":[{"binding":{"n":{"kind":"literal","value":"thing 0 prime"}}}],"snapshot_version":1}` + "\n")
	stubHealth = []byte(`{"status":"ok"}` + "\n")
	stubHeader = http.Header{"Content-Type": {"application/json"}}
)

// raceAllocs is what the race detector's runtime adds to a routed
// query's allocations (race_test.go).
var raceAllocs = 0

// stubShards answers every /healthz with ok and every other request with
// one canned 200 that says how long it is, without a network.
type stubShards struct{}

func (stubShards) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return nil, err
		}
		if err := req.Body.Close(); err != nil {
			return nil, err
		}
	}
	body := stubAnswer
	if req.URL.Path == "/healthz" {
		body = stubHealth
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        stubHeader,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}, nil
}

// What a routed query costs the router in allocations, pinned: the
// handler and the relay of one shard's answer over a transport that
// costs next to nothing itself, less the request and recorder the
// harness makes. The exact count is the point — a change that adds one
// says so here.
func TestRoutedQueryAllocs(t *testing.T) {
	r, err := New(Config{
		Shards:         []string{"shard-0:1", "shard-1:1", "shard-2:1"},
		HealthInterval: time.Hour,
		Transport:      stubShards{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := r.Handler()
	const body = `{"query":"SELECT ?n WHERE { <http://ds1/a0> <http://ds2/name> ?n . }","timeout_ms":5000}`
	newRequest := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	}
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, newRequest())
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), stubAnswer) {
			t.Fatalf("router answered %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	for i := 0; i < 100; i++ {
		serve() // every pool is warm
	}
	harness := testing.AllocsPerRun(200, func() {
		_ = httptest.NewRecorder()
		_ = newRequest()
	})
	pin := 27 + raceAllocs
	if got := testing.AllocsPerRun(200, serve) - harness; got != float64(pin) {
		t.Errorf("a routed query allocates %v times in the router, want %d", got, pin)
	}
}

// closeFails is a response body that reads whole and then fails to
// close.
type closeFails struct{ io.Reader }

var errBodyClose = errors.New("body close failed")

func (closeFails) Close() error { return errBodyClose }

// closeFailingShards answers like stubShards, but every /query body
// fails to close; unsized leaves its length unsaid.
type closeFailingShards struct{ unsized bool }

func (c closeFailingShards) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := stubShards{}.RoundTrip(req)
	if err == nil && req.URL.Path == "/query" {
		resp.Body = closeFails{resp.Body}
		if c.unsized {
			resp.ContentLength = -1
		}
	}
	return resp, err
}

// TestRelayReturnsBodyCloseError: a shard answer whose body reads whole
// but fails to close is a failed exchange, read by length or to EOF, so
// the router answers 502 with the close error and relays no bytes.
func TestRelayReturnsBodyCloseError(t *testing.T) {
	for _, unsized := range []bool{false, true} {
		r, err := New(Config{
			Shards:         []string{"shard-0:1"},
			HealthInterval: time.Hour,
			Transport:      closeFailingShards{unsized},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"query":"ASK { ?s ?p ?o . }"}`)))
		r.Close()
		if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), errBodyClose.Error()) {
			t.Errorf("unsized=%v: router answered %d %s, want 502 with %q", unsized, rec.Code, rec.Body.Bytes(), errBodyClose)
		}
	}
}
