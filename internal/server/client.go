// Client is the thin HTTP client of alexd used by cmd/fedquery and
// cmd/alexload. It speaks the JSON wire types defined in handlers.go.
//
// Transient failures — transport errors, 429 backpressure and 5xx
// responses (e.g. the 503 a journal outage produces) — are retried with
// jittered exponential backoff, honoring the server's Retry-After
// header, up to RetryPolicy.MaxAttempts and never past the caller's
// context deadline. /query and /links are reads, so their retries are
// always safe. /feedback delivery is at-least-once: 429 and 503 are
// explicit not-accepted responses and retrying them is exact, but a
// transport error is ambiguous — it can strike after the server
// journaled and acked the item with the response lost in flight, in
// which case the retry applies the same verdict twice. ALEX feedback
// tolerates duplicates (a repeated verdict reinforces, never corrupts);
// callers that need at-most-once delivery instead set
// RetryPolicy.MaxAttempts to 1 and handle the ambiguity themselves.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"alex/internal/cluster"
)

// ErrQueueFull is returned by Client.Feedback when the server responded
// 429 on the final attempt: the feedback was NOT accepted and should be
// retried later.
var ErrQueueFull = errors.New("server: feedback queue full (429)")

// RetryPolicy tunes the client's handling of transient failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 disables retries).
	MaxAttempts int
	// BackoffBase is the first retry delay; it doubles per retry with
	// full jitter, capped at BackoffMax. A server Retry-After raises
	// (never lowers) the delay.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// DefaultRetryPolicy retries transient failures a few times within
// roughly a second and a half of cumulative backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BackoffBase: 100 * time.Millisecond, BackoffMax: 2 * time.Second}
}

// Client talks to an alexd instance.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

// NewClient returns a client for addr, which may be "host:port" or a
// full http:// URL, with DefaultRetryPolicy.
func NewClient(addr string) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &Client{
		base:  base,
		hc:    &http.Client{Timeout: 30 * time.Second},
		retry: DefaultRetryPolicy(),
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// SetRetryPolicy replaces the retry policy (e.g. MaxAttempts: 1 to
// disable retries). Not safe concurrently with in-flight requests.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// SetTransport replaces the underlying HTTP transport. Chaos tests
// route requests through a faultnet.Transport with it. Not safe
// concurrently with in-flight requests.
func (c *Client) SetTransport(rt http.RoundTripper) { c.hc.Transport = rt }

// CloseIdleConnections releases the client's pooled connections.
func (c *Client) CloseIdleConnections() { c.hc.CloseIdleConnections() }

// retryableStatus reports whether a response status is worth retrying:
// backpressure, server-side outages and gateway errors. 4xx are the
// caller's fault and never retried.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfter parses a Retry-After header in its delay-seconds form.
func retryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(d)) + 1)
}

// callBudget bounds one no-ctx convenience call: worst case, every
// attempt runs to the transport timeout and waits out the maximum
// backoff. The Context variants are the real API — this budget only
// keeps the bare wrappers from waiting forever when every attempt
// stalls (a stuck TCP peer, a transport with no timeout of its own).
func (c *Client) callBudget() time.Duration {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	per := c.hc.Timeout
	if per <= 0 {
		per = 30 * time.Second
	}
	backoff := c.retry.BackoffMax
	if backoff < c.retry.BackoffBase {
		backoff = c.retry.BackoffBase
	}
	if backoff <= 0 {
		backoff = DefaultRetryPolicy().BackoffMax
	}
	return time.Duration(attempts) * (per + backoff)
}

// do issues one request with retries. It returns the final attempt's
// status, headers and body; err is non-nil only when no response was
// obtained at all (transport failure or context expiry).
func (c *Client) do(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
	p := c.retry
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = DefaultRetryPolicy().BackoffBase
	}
	if p.BackoffMax < p.BackoffBase {
		p.BackoffMax = p.BackoffBase
	}
	backoff := p.BackoffBase
	var lastErr error
	var wait time.Duration
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := c.jitter(backoff)
			if wait > delay {
				delay = wait // the server asked for at least this much
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return 0, nil, nil, fmt.Errorf("server: %w (last error: %v)", ctx.Err(), lastErr)
			}
			backoff *= 2
			if backoff > p.BackoffMax {
				backoff = p.BackoffMax
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return 0, nil, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, nil, fmt.Errorf("server: %w", ctx.Err())
			}
			lastErr = err // transport error: retry
			wait = 0
			continue
		}
		data, readErr := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); readErr == nil {
			readErr = cerr
		}
		if retryableStatus(resp.StatusCode) && attempt < p.MaxAttempts-1 {
			lastErr = fmt.Errorf("server: HTTP %d", resp.StatusCode)
			wait, _ = retryAfter(resp.Header)
			continue
		}
		return resp.StatusCode, resp.Header, data, readErr
	}
	return 0, nil, nil, lastErr
}

func (c *Client) postJSON(ctx context.Context, path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	status, _, data, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return status, err
	}
	if status >= 400 {
		var e errorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return status, fmt.Errorf("server: %s", e.Error)
		}
		return status, fmt.Errorf("server: HTTP %d", status)
	}
	if resp != nil {
		if err := json.Unmarshal(data, resp); err != nil {
			return status, err
		}
	}
	return status, nil
}

func (c *Client) getJSON(ctx context.Context, path string, resp any) error {
	status, _, data, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status >= 400 {
		return fmt.Errorf("server: HTTP %d", status)
	}
	return json.Unmarshal(data, resp)
}

// Query evaluates a federated SPARQL query on the server, bounded by
// the client's retry budget. Callers with a deadline of their own use
// QueryContext.
func (c *Client) Query(query string) (*QueryResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.callBudget())
	defer cancel()
	return c.QueryContext(ctx, query)
}

// QueryContext is Query bounded by ctx (including retry backoff).
func (c *Client) QueryContext(ctx context.Context, query string) (*QueryResponse, error) {
	var out QueryResponse
	if _, err := c.postJSON(ctx, "/query", QueryRequest{Query: query}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Feedback reports an answer-level verdict on the links of a row.
// Returns ErrQueueFull if the server is still backpressuring after the
// policy's retries. Delivery is at-least-once: a retry after a lost
// response may apply the verdict twice (see the package comment).
func (c *Client) Feedback(rowLinks []LinkJSON, approve bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.callBudget())
	defer cancel()
	return c.FeedbackContext(ctx, rowLinks, approve)
}

// FeedbackContext is Feedback bounded by ctx (including retry backoff).
func (c *Client) FeedbackContext(ctx context.Context, rowLinks []LinkJSON, approve bool) error {
	status, err := c.postJSON(ctx, "/feedback", FeedbackRequest{Approve: approve, Links: rowLinks}, nil)
	if status == http.StatusTooManyRequests {
		return ErrQueueFull
	}
	return err
}

// FeedbackResult is FeedbackContext exposing the final HTTP status
// (0 when no response was obtained at all). The fleet router uses it
// to tell a client mistake (4xx, not retryable) from backpressure and
// outages (429/5xx/transport, retryable).
func (c *Client) FeedbackResult(ctx context.Context, rowLinks []LinkJSON, approve bool) (int, error) {
	return c.postJSON(ctx, "/feedback", FeedbackRequest{Approve: approve, Links: rowLinks}, nil)
}

// Links fetches the published candidate link set, bounded by the
// client's retry budget.
func (c *Client) Links() (*LinksResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.callBudget())
	defer cancel()
	return c.LinksContext(ctx)
}

// LinksContext is Links bounded by ctx. The fleet router's /links
// proxy uses it so an abandoned request stops waiting on the shard.
func (c *Client) LinksContext(ctx context.Context) (*LinksResponse, error) {
	var out LinksResponse
	if err := c.getJSON(ctx, "/links", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz fetches the health report, bounded by the client's retry
// budget.
func (c *Client) Healthz() (*HealthResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.callBudget())
	defer cancel()
	return c.HealthzContext(ctx)
}

// HealthzContext is Healthz bounded by ctx. The fleet router's probe
// loops use it so a hung shard's probe ends at its timeout.
func (c *Client) HealthzContext(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.getJSON(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReplicaSnapshot pulls the shard's own link-partition manifest
// (fleet replication wire; 404 on a standalone server).
func (c *Client) ReplicaSnapshot(ctx context.Context) (*cluster.SnapshotManifest, error) {
	var out cluster.SnapshotManifest
	if err := c.getJSON(ctx, "/replica/snapshot", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReplicaPush offers a manifest to a peer shard. applied=false means
// the peer already held an equal-or-newer episode from that shard.
func (c *Client) ReplicaPush(ctx context.Context, m cluster.SnapshotManifest) (applied bool, err error) {
	var out struct {
		Applied bool `json:"applied"`
	}
	if _, err := c.postJSON(ctx, "/replica/push", m, &out); err != nil {
		return false, err
	}
	return out.Applied, nil
}

// Addr returns the client's normalized base URL.
func (c *Client) Addr() string { return c.base }

// MetricsText fetches the raw Prometheus exposition, bounded by the
// client's retry budget.
func (c *Client) MetricsText() (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.callBudget())
	defer cancel()
	return c.MetricsTextContext(ctx)
}

// MetricsTextContext is MetricsText bounded by ctx.
func (c *Client) MetricsTextContext(ctx context.Context) (string, error) {
	status, _, data, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	if status >= 400 {
		return "", fmt.Errorf("server: HTTP %d", status)
	}
	return string(data), nil
}
