// Package factsdemo exercises the fact computation end to end:
// propagation through helpers, the goroutine boundary, signature
// detection and the journal contract.
package factsdemo

import (
	"context"
	"net/http"

	"alex/internal/wal"
)

// fetches performs an outbound HTTP request, two frames down.
func fetches(hc *http.Client, req *http.Request) error {
	_, err := hc.Do(req)
	return err
}

func callsFetcher(hc *http.Client, req *http.Request) error {
	return fetches(hc, req)
}

// launches starts the work asynchronously: the launch itself does not
// journal or fetch, so no fact may credit it.
func launches(l *wal.Log, p []byte, hc *http.Client, req *http.Request) {
	go func() {
		l.Append(p)
	}()
	go fetches(hc, req)
}

// journals appends to the WAL.
func journals(l *wal.Log, p []byte) error {
	_, err := l.Append(p)
	return err
}

// hasCtx carries a context; hasReq carries one via *http.Request.
func hasCtx(ctx context.Context) {}

func hasReq(w http.ResponseWriter, r *http.Request) {}

// callsHasCtx has no context of its own, whatever its callee takes.
func callsHasCtx() { hasCtx(context.TODO()) }

// acks writes an HTTP status.
func acks(w http.ResponseWriter) {
	w.WriteHeader(http.StatusAccepted)
}

func callsAcks(w http.ResponseWriter) {
	acks(w)
}

// pure does none of the above.
func pure(a, b int) int { return a + b }
