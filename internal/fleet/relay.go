// The /query relay: the router's request to a shard is one attempt
// through the transport, built from a per-shard template — no
// http.Client, no redirect policy, no retries (the hedge is the
// router's retry) — and the shard's answer is read into one slice and
// relayed as received.
package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// queryHeader is the header of every relayed /query. A transport only
// reads a request's header, so one map serves them all.
var queryHeader = http.Header{"Content-Type": {"application/json"}}

// maxSizedReply is the largest Content-Length the relay sizes its buffer
// by up front; a longer one, or none, is read as it comes.
const maxSizedReply = 16 << 20

// shardReply is a shard's /query response as received.
type shardReply struct {
	status int
	header http.Header
	body   []byte
}

// newQueryTemplate parses a shard's /query URL once; every relayed
// query is a shallow copy of the request it returns.
func newQueryTemplate(base string) (*http.Request, error) {
	u, err := url.Parse(base + "/query")
	if err != nil {
		return nil, fmt.Errorf("fleet: shard address %q: %w", base, err)
	}
	return &http.Request{
		Method:     http.MethodPost,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     queryHeader,
		Host:       u.Host,
	}, nil
}

// ask sends body to sh's /query once, within ctx, and returns the
// shard's answer: any status below 500, a 4xx included. A 5xx or a
// transport error is an error.
func (r *Router) ask(ctx context.Context, sh *shard, body []byte) (shardReply, error) {
	req := sh.query.WithContext(ctx)
	req.Body = io.NopCloser(bytes.NewReader(body))
	req.ContentLength = int64(len(body))
	// A connection that dies before the request is written lets the
	// transport send it again on a fresh one.
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	resp, err := r.transport.RoundTrip(req)
	if err != nil {
		return shardReply{}, fmt.Errorf("shard %d: %w", sh.id, err)
	}
	data, err := readReply(resp)
	if err != nil {
		return shardReply{}, fmt.Errorf("shard %d: %w", sh.id, err)
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		return shardReply{}, fmt.Errorf("shard %d: HTTP %d", sh.id, resp.StatusCode)
	}
	return shardReply{resp.StatusCode, resp.Header, data}, nil
}

// readReply reads and closes resp's body: into one slice when
// Content-Length says how long it is, as io.ReadAll would otherwise.
func readReply(resp *http.Response) ([]byte, error) {
	var data []byte
	var err error
	if n := resp.ContentLength; n >= 0 && n <= maxSizedReply {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return data, err
}
