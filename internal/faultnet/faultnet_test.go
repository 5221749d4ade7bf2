package faultnet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, strings.Repeat("x", 2048))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, tr *Transport, url string) (*http.Response, error) {
	t.Helper()
	c := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	return c.Get(url)
}

func drain(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("close body: %v", err)
	}
	return string(data)
}

func TestTransportPassthroughAndCounts(t *testing.T) {
	ts := testServer(t)
	tr := New(1, nil)
	for i := 0; i < 3; i++ {
		resp, err := get(t, tr, ts.URL+"/query")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if body := drain(t, resp); len(body) != 2048 {
			t.Fatalf("body length %d", len(body))
		}
	}
	host := strings.TrimPrefix(ts.URL, "http://")
	if got := tr.Requests(host, "/query"); got != 3 {
		t.Fatalf("counted %d requests, want 3", got)
	}
	if got := tr.HostRequests(host); got != 3 {
		t.Fatalf("host total %d, want 3", got)
	}
}

func TestTransportPartition(t *testing.T) {
	ts := testServer(t)
	tr := New(1, nil)
	host := strings.TrimPrefix(ts.URL, "http://")
	tr.SetFaults(host, Faults{Partition: true})
	if _, err := get(t, tr, ts.URL+"/"); !errors.Is(err, ErrPartition) {
		t.Fatalf("partitioned get: %v, want ErrPartition", err)
	}
	// Partitioned attempts are still counted (the drill's rate audit
	// needs them) and healing restores service.
	if got := tr.HostRequests(host); got != 1 {
		t.Fatalf("counted %d, want 1", got)
	}
	tr.ClearFaults(host)
	resp, err := get(t, tr, ts.URL+"/")
	if err != nil {
		t.Fatalf("healed get: %v", err)
	}
	drain(t, resp)
}

func TestTransportDeterministicDrops(t *testing.T) {
	run := func(seed int64) []bool {
		ts := testServer(t)
		tr := New(seed, nil)
		tr.SetFaults("", Faults{DropProb: 0.5})
		var fates []bool
		for i := 0; i < 32; i++ {
			resp, err := get(t, tr, ts.URL+"/")
			if err == nil {
				drain(t, resp)
			} else if !errors.Is(err, ErrDropped) {
				t.Fatalf("unexpected error: %v", err)
			}
			fates = append(fates, err == nil)
		}
		return fates
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 runs diverged at request %d", i)
		}
	}
	dropped := 0
	for _, ok := range a {
		if !ok {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(a) {
		t.Fatalf("DropProb 0.5 dropped %d/%d", dropped, len(a))
	}

	// Every draw plan makes — the jitter, the drop and the 5xx burst —
	// comes from the seed, so two transports with one seed plan the
	// same fates.
	type fate struct {
		delay          time.Duration
		drop, errBurst bool
	}
	plans := func(seed int64) []fate {
		tr := New(seed, nil)
		tr.SetFaults("", Faults{Latency: time.Millisecond, Jitter: time.Second, DropProb: 0.5, ErrProb: 0.5})
		out := make([]fate, 64)
		for i := range out {
			_, delay, drop, errBurst := tr.plan("shard", "/query")
			out[i] = fate{delay, drop, errBurst}
		}
		return out
	}
	pa, pb := plans(42), plans(42)
	bursts := 0
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("seed 42 plans diverged at request %d: %+v vs %+v", i, pa[i], pb[i])
		}
		if pa[i].delay < time.Millisecond || pa[i].delay > time.Millisecond+time.Second {
			t.Fatalf("request %d delay %v outside Latency + [0, Jitter]", i, pa[i].delay)
		}
		if pa[i].errBurst {
			bursts++
		}
	}
	if pa[0].delay == pa[1].delay || bursts == 0 || bursts == len(pa) {
		t.Fatalf("Jitter and ErrProb 0.5 drew no spread: delays %v, %v; %d/%d bursts", pa[0].delay, pa[1].delay, bursts, len(pa))
	}
}

func TestTransportErrBurst(t *testing.T) {
	ts := testServer(t)
	tr := New(7, nil)
	tr.SetFaults("", Faults{ErrProb: 1})
	resp, err := get(t, tr, ts.URL+"/feedback")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("X-Faultnet") != "injected" {
		t.Fatalf("missing injection marker")
	}
}

func TestTransportLatencyHonorsContext(t *testing.T) {
	ts := testServer(t)
	tr := New(3, nil)
	tr.SetFaults("", Faults{Latency: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/", nil)
	start := time.Now()
	_, err := (&http.Client{Transport: tr}).Do(req)
	if err == nil {
		t.Fatal("expected context expiry")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("context expiry took %s; the latency sleep ignored ctx", elapsed)
	}
}

func TestTransportSlowBody(t *testing.T) {
	ts := testServer(t)
	tr := New(5, nil)
	tr.SetFaults("", Faults{SlowBody: 20 * time.Millisecond, SlowChunk: 512})
	resp, err := get(t, tr, ts.URL+"/")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	start := time.Now()
	body := drain(t, resp)
	if len(body) != 2048 {
		t.Fatalf("body length %d", len(body))
	}
	// 2048 bytes at 512/chunk = 4 chunks, 3 inter-chunk sleeps minimum.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("slow body arrived in %s", elapsed)
	}
}

// closeFails is a response body that reads whole and then fails to
// close.
type closeFails struct{ io.Reader }

var errBodyClose = errors.New("body close failed")

func (closeFails) Close() error { return errBodyClose }

type upstreamFunc func(*http.Request) (*http.Response, error)

func (f upstreamFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestSlowBodyReturnsCloseError: a slow-loris body passes on the
// wrapped body's Close error, so a chaos drill cannot hide a failed
// close behind the fault it injects.
func TestSlowBodyReturnsCloseError(t *testing.T) {
	tr := New(6, upstreamFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Body: closeFails{strings.NewReader("answer")}, Request: req}, nil
	}))
	tr.SetFaults("", Faults{SlowBody: time.Millisecond})
	req, err := http.NewRequest(http.MethodGet, "http://shard/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if data, err := io.ReadAll(resp.Body); err != nil || string(data) != "answer" {
		t.Fatalf("read %q, %v; want the whole body", data, err)
	}
	if err := resp.Body.Close(); !errors.Is(err, errBodyClose) {
		t.Fatalf("slow body's Close returned %v, want %v", err, errBodyClose)
	}
}
