package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzAppendJSONString holds the hand-written string writer to
// encoding/json with HTML escaping off, byte for byte, on any input.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", "http://ds1.example.org/resource/E0",
		`quote " backslash \ slash /`,
		"\b\f\n\r\t", "\x00\x01\x1f\x7f", "bell \a escape \x1b",
		"<script>&amp;</script>",
		"line \u2028 paragraph \u2029 end", "\u2027\u202a",
		"é 日本 \U0001F600 \ufffd",
		"\xff", "a\xc0\xafb", "\xe2\x80", "\xed\xa0\x80", "tail \xf0\x9f\x98",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		got := appendJSONString([]byte("kept"), s)
		if string(got) != "kept"+strings.TrimSuffix(want.String(), "\n") {
			t.Fatalf("appendJSONString(%q) = %s, encoding/json %s", s, got[len("kept"):], want.Bytes())
		}
	})
}

// TestQueryBodyBounds: /query reads at most MaxQueryBodyBytes and takes
// exactly one JSON value.
func TestQueryBodyBounds(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	s, _, _ := newTestServer(t, sys, dict, sources, Config{})
	valid := `{"query":"SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }"}`
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"one value", valid, http.StatusOK},
		{"blanks after it", valid + " \n", http.StatusOK},
		{"at the limit", valid + strings.Repeat(" ", MaxQueryBodyBytes-len(valid)), http.StatusOK},
		{"past the limit", valid + strings.Repeat(" ", MaxQueryBodyBytes-len(valid)+1), http.StatusRequestEntityTooLarge},
		{"bytes after it", valid + " trailing-bytes", http.StatusBadRequest},
		{"a second value", valid + valid, http.StatusBadRequest},
		{"nothing", "", http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.want, rec.Body)
		}
		if rec.Code != http.StatusOK {
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s: error body %q is not a JSON error", c.name, rec.Body)
			}
		}
	}
}

// reusedWriter is a ResponseWriter that allocates nothing once warm.
type reusedWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *reusedWriter) Header() http.Header    { return w.h }
func (w *reusedWriter) WriteHeader(status int) { w.status = status }
func (w *reusedWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestQueryHandlerAllocs pins what a warm one-row lookup costs from the
// handler's first line to its last write: 32 allocations, where the
// handler that decoded the row into a Binding, a link set and a RowJSON
// and had encoding/json walk them made 53 (this test's body at 67f10bd)
// and the one that evaluated on a helper goroutine 38. What is left is
// the evaluation itself, the deadline context, the body limit, the
// decoded request and two header values. A map per row would show here
// before it shows in a benchmark campaign.
func TestQueryHandlerAllocs(t *testing.T) {
	dict, sources, sys, _ := tinyWorld(t)
	s, _, _ := newTestServer(t, sys, dict, sources, Config{FlushInterval: time.Hour})
	reqBody := []byte(`{"query":"SELECT ?n WHERE { <http://ds1/a1> <http://ds2/name> ?n . }"}`)
	body := bytes.NewReader(reqBody)
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	req.Body = io.NopCloser(body)
	w := &reusedWriter{h: http.Header{}}
	h := s.Handler()
	serve := func() {
		body.Reset(reqBody)
		clear(w.h)
		w.body = w.body[:0]
		h.ServeHTTP(w, req)
	}
	serve() // warms the plan cache, the buffer pool and the writer
	want := `{"vars":["n"],"rows":[{"binding":{"n":{"kind":"literal","value":"alpha prime"}},"links":[{"e1":"http://ds1/a1","e2":"http://ds2/b1"}]}],"snapshot_version":1}` + "\n"
	if w.status != http.StatusOK || string(w.body) != want {
		t.Fatalf("status %d, body %s", w.status, w.body)
	}
	const pin = 32
	if allocs := testing.AllocsPerRun(200, serve); allocs > pin {
		t.Errorf("a warm one-row lookup allocates %v times in the handler, want at most %d", allocs, pin)
	}
}
