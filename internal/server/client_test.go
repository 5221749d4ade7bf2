package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// countingTransport counts the requests a client hands its transport,
// so a test sees every attempt even when no server answers.
type countingTransport struct {
	calls atomic.Int64
	next  http.RoundTripper
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.calls.Add(1)
	return t.next.RoundTrip(r)
}

// Every request is one attempt: a caller mistake, backpressure, an
// outage that asks to be retried later, and a refused connection all
// reach the caller on the first response, and the server sees one
// request each.
func TestClientAsksOnce(t *testing.T) {
	refused, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refusedAddr := refused.Addr().String()
	refused.Close()

	for _, tc := range []struct {
		name   string
		status int
		after  string
	}{
		{name: "400", status: http.StatusBadRequest},
		{name: "429", status: http.StatusTooManyRequests, after: "1"},
		{name: "500", status: http.StatusInternalServerError},
		{name: "503 with Retry-After", status: http.StatusServiceUnavailable, after: "1"},
		{name: "refused connection"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := refusedAddr
			if tc.status != 0 {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if tc.after != "" {
						w.Header().Set("Retry-After", tc.after)
					}
					w.WriteHeader(tc.status)
				}))
				defer ts.Close()
				addr = ts.URL
			}
			rt := &countingTransport{next: http.DefaultTransport.(*http.Transport).Clone()}
			c := NewClient(addr)
			c.SetTransport(rt)

			status, err := c.FeedbackResult(context.Background(), []LinkJSON{{E1: "a", E2: "b"}}, true)
			if err == nil {
				t.Fatalf("feedback: status %d with no error", status)
			}
			if status != tc.status {
				t.Fatalf("feedback: status %d, want %d (err %v)", status, tc.status, err)
			}
			if got := rt.calls.Load(); got != 1 {
				t.Fatalf("feedback: %d requests, want 1", got)
			}
			err = c.Feedback([]LinkJSON{{E1: "a", E2: "b"}}, true)
			if (tc.status == http.StatusTooManyRequests) != errors.Is(err, ErrQueueFull) {
				t.Fatalf("feedback after %d: err %v", tc.status, err)
			}
			if _, err := c.Query("SELECT ?s WHERE { ?s ?p ?o . }"); err == nil {
				t.Fatal("query: no error")
			}
			if got := rt.calls.Load(); got != 3 {
				t.Fatalf("three calls sent %d requests, want 3", got)
			}
		})
	}
}

// A hung server is abandoned at the caller's deadline.
func TestClientRespectsContextDeadline(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	c := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.FeedbackResult(ctx, []LinkJSON{{E1: "a", E2: "b"}}, true)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("feedback against a hung server: err %v, want the deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client ignored the context deadline: returned after %s", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}
