package fleet

import (
	"bytes"
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
// handler, the hedge timer and the relay over a transport that costs
// next to nothing itself, less the request and recorder the harness
// makes. The exact count is the point — a change that adds one says so
// here.
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
	for i := 0; i < 2*hedgeWindow; i++ {
		serve() // the adaptive delay settles, every pool is warm
	}
	harness := testing.AllocsPerRun(200, func() {
		_ = httptest.NewRecorder()
		_ = newRequest()
	})
	pin := 30 + raceAllocs
	if got := testing.AllocsPerRun(200, serve) - harness; got != float64(pin) {
		t.Errorf("a routed query allocates %v times in the router, want %d", got, pin)
	}
}
