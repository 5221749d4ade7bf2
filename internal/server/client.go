// Client is the thin HTTP client of alexd used by cmd/fedquery, the
// fleet router and a shard's replicator. It speaks the JSON wire types
// defined in handlers.go.
//
// Every request is one attempt. A transport error, a 429 and a 5xx
// reach the caller on the first response, with the server's
// Retry-After left for the caller to honour; nothing here sleeps,
// backs off or draws a random number. A caller that retries /feedback
// after a 429 or 503 is exact — those are explicit not-accepted
// answers — but a transport error is ambiguous: it can strike after
// the server journaled and acked the item with the response lost in
// flight. Retrying it is at-least-once delivery (ALEX feedback
// tolerates duplicates: a repeated verdict reinforces, never
// corrupts); not retrying it leaves the verdict's fate unknown.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"alex/internal/cluster"
)

// ErrQueueFull is returned by Client.Feedback when the server responded
// 429: the feedback was NOT accepted and should be retried later.
var ErrQueueFull = errors.New("server: feedback queue full (429)")

// Client talks to an alexd instance.
type Client struct {
	base string
	hc   *http.Client
}

// requestTimeout bounds every request the client sends, including the
// no-context wrappers' (Query, Feedback, Links, Healthz, MetricsText).
const requestTimeout = 30 * time.Second

// NewClient returns a client for addr, which may be "host:port" or a
// full http:// URL.
func NewClient(addr string) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &Client{base: base, hc: &http.Client{Timeout: requestTimeout}}
}

// SetTransport replaces the underlying HTTP transport. Chaos tests
// route requests through a faultnet.Transport with it. Not safe
// concurrently with in-flight requests.
func (c *Client) SetTransport(rt http.RoundTripper) { c.hc.Transport = rt }

// CloseIdleConnections releases the client's pooled connections.
func (c *Client) CloseIdleConnections() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status, headers and body of its
// response; err is non-nil only when no response was obtained at all
// (transport failure or context expiry).
func (c *Client) do(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
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
		return 0, nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header, data, err
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
// the client's request timeout. Callers with a deadline of their own
// use QueryContext.
func (c *Client) Query(query string) (*QueryResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return c.QueryContext(ctx, query)
}

// QueryContext is Query bounded by ctx.
func (c *Client) QueryContext(ctx context.Context, query string) (*QueryResponse, error) {
	var out QueryResponse
	if _, err := c.postJSON(ctx, "/query", QueryRequest{Query: query}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Feedback reports an answer-level verdict on the links of a row,
// bounded by the client's request timeout. Returns ErrQueueFull if the
// server answered 429: the verdict was not accepted. After a transport
// error the verdict may or may not have landed (see the package
// comment).
func (c *Client) Feedback(rowLinks []LinkJSON, approve bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return c.FeedbackContext(ctx, rowLinks, approve)
}

// FeedbackContext is Feedback bounded by ctx.
func (c *Client) FeedbackContext(ctx context.Context, rowLinks []LinkJSON, approve bool) error {
	status, err := c.postJSON(ctx, "/feedback", FeedbackRequest{Approve: approve, Links: rowLinks}, nil)
	if status == http.StatusTooManyRequests {
		return ErrQueueFull
	}
	return err
}

// FeedbackResult is FeedbackContext exposing the HTTP status (0 when
// no response was obtained at all). The fleet router uses it
// to tell a client mistake (4xx, not retryable) from backpressure and
// outages (429/5xx/transport, retryable).
func (c *Client) FeedbackResult(ctx context.Context, rowLinks []LinkJSON, approve bool) (int, error) {
	return c.postJSON(ctx, "/feedback", FeedbackRequest{Approve: approve, Links: rowLinks}, nil)
}

// Links fetches the published candidate link set, bounded by the
// client's request timeout.
func (c *Client) Links() (*LinksResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
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

// Healthz fetches the health report, bounded by the client's request
// timeout.
func (c *Client) Healthz() (*HealthResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
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

// ReplicaPush offers a manifest to a peer shard and returns the peer's
// own manifest: one replication exchange (fleet wire; 404 on a
// standalone server).
func (c *Client) ReplicaPush(ctx context.Context, m cluster.SnapshotManifest) (*cluster.SnapshotManifest, error) {
	var out cluster.SnapshotManifest
	if _, err := c.postJSON(ctx, "/replica/push", m, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Addr returns the client's normalized base URL.
func (c *Client) Addr() string { return c.base }

// MetricsText fetches the raw Prometheus exposition, bounded by the
// client's request timeout.
func (c *Client) MetricsText() (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
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
