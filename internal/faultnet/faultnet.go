// Package faultnet injects network faults between fleet components —
// the network-layer sibling of internal/faultfs. It is an in-process
// layer: the fleet tests put a Transport under the router.
//
// Transport wraps an http.RoundTripper and injects, per destination
// host: added latency (with jitter), connection drops, synthesized 5xx
// bursts, slow-loris response bodies and full partitions. All
// randomness comes from one seeded *rand.Rand, so a chaos run is
// reproducible from its seed alone. The transport also counts every
// upstream request attempt by (host, path) — tests assert request
// counts (e.g. "a slow shard gets exactly one /query per client query")
// against those counters.
//
// Asymmetric partitions fall out of the shape: faults are keyed by
// destination host and each component owns its own Transport, so
// "router cannot reach shard 2" leaves "shard 2 reaches everyone"
// intact.
package faultnet

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Faults is one destination's injection profile. The zero value
// injects nothing.
type Faults struct {
	// Latency is added before the request is forwarded (or failed);
	// Jitter adds a uniformly random extra on top.
	Latency time.Duration
	Jitter  time.Duration
	// DropProb is the probability the connection drops: the request
	// fails with a transport error after the latency, no response. The
	// caller cannot tell whether the server processed it — exactly the
	// ambiguity real connection resets have.
	DropProb float64
	// ErrProb is the probability the request is answered with a
	// synthesized 503 burst instead of reaching the upstream.
	ErrProb float64
	// SlowBody drips the response body out one chunk per interval
	// (slow-loris): the status arrives promptly, the payload crawls.
	SlowBody time.Duration
	// SlowChunk is the bytes released per SlowBody interval (0 = 256).
	SlowChunk int
	// Partition fails every request immediately: the destination is
	// unreachable from this transport's side.
	Partition bool
}

// ErrPartition is the transport error injected for partitioned hosts.
var ErrPartition = fmt.Errorf("faultnet: host partitioned")

// ErrDropped is the transport error injected for dropped connections.
var ErrDropped = fmt.Errorf("faultnet: connection dropped")

// Transport is a fault-injecting http.RoundTripper. Safe for
// concurrent use.
type Transport struct {
	next http.RoundTripper

	mu     sync.Mutex
	rng    *rand.Rand
	faults map[string]Faults // keyed by destination host; "" is the default profile
	counts map[string]map[string]int
}

// New returns a Transport forwarding to next (nil = the default
// transport) with all randomness derived from seed.
func New(seed int64, next http.RoundTripper) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Transport{
		next:   next,
		rng:    rand.New(rand.NewSource(seed)),
		faults: make(map[string]Faults),
		counts: make(map[string]map[string]int),
	}
}

// SetFaults installs the injection profile for host ("" installs the
// default profile for hosts without their own).
func (t *Transport) SetFaults(host string, f Faults) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults[host] = f
}

// ClearFaults removes host's profile (it falls back to the default).
func (t *Transport) ClearFaults(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.faults, host)
}

// Requests returns how many upstream request attempts were made to
// host for path (counted before any fault fires, so dropped and
// partitioned attempts count too).
func (t *Transport) Requests(host, path string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[host][path]
}

// HostRequests returns the total attempts to host across all paths.
func (t *Transport) HostRequests(host string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.counts[host] {
		n += c
	}
	return n
}

// Stats snapshots all counters as host → path → attempts.
func (t *Transport) Stats() map[string]map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]map[string]int, len(t.counts))
	for h, paths := range t.counts {
		m := make(map[string]int, len(paths))
		for p, n := range paths {
			m[p] = n
		}
		out[h] = m
	}
	return out
}

// plan draws this request's fate under the mutex: the profile lookup,
// the counter bump and every random decision happen atomically.
// Determinism holds for a sequential client; concurrent requests still
// race for rng draws, which is why the seeded drills assert on
// aggregate counters, not individual request fates.
func (t *Transport) plan(host, path string) (f Faults, delay time.Duration, drop, errBurst bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	paths := t.counts[host]
	if paths == nil {
		paths = make(map[string]int)
		t.counts[host] = paths
	}
	paths[path]++
	f, ok := t.faults[host]
	if !ok {
		f = t.faults[""]
	}
	delay = f.Latency
	if f.Jitter > 0 {
		delay += time.Duration(t.rng.Int63n(int64(f.Jitter) + 1))
	}
	drop = f.DropProb > 0 && t.rng.Float64() < f.DropProb
	errBurst = f.ErrProb > 0 && t.rng.Float64() < f.ErrProb
	return f, delay, drop, errBurst
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f, delay, drop, errBurst := t.plan(req.URL.Host, req.URL.Path)
	if f.Partition {
		return nil, ErrPartition
	}
	if delay > 0 {
		if err := sleepCtx(req.Context(), delay); err != nil {
			return nil, err
		}
	}
	if drop {
		return nil, ErrDropped
	}
	if errBurst {
		return synthesized(req, http.StatusServiceUnavailable), nil
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if f.SlowBody > 0 {
		chunk := f.SlowChunk
		if chunk <= 0 {
			chunk = 256
		}
		resp.Body = &slowBody{rc: resp.Body, ctx: req.Context(), every: f.SlowBody, chunk: chunk}
	}
	return resp, nil
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// synthesized builds an in-flight 5xx that never touched the upstream.
func synthesized(req *http.Request, status int) *http.Response {
	return &http.Response{
		Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode: status,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"X-Faultnet": []string{"injected"}},
		Body:       http.NoBody,
		Request:    req,
	}
}

// slowBody releases the wrapped body chunk by chunk, sleeping between
// chunks — a slow-loris response. Reads honor the request context so
// an abandoned response does not leak a sleeper.
type slowBody struct {
	rc      io.ReadCloser
	ctx     context.Context
	every   time.Duration
	chunk   int
	started bool
}

func (s *slowBody) Read(p []byte) (int, error) {
	if s.started {
		if err := sleepCtx(s.ctx, s.every); err != nil {
			return 0, err
		}
	}
	s.started = true
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.rc.Read(p)
}

func (s *slowBody) Close() error { return s.rc.Close() }
