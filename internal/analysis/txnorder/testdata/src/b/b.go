// Fixture b: compliant fan-out paths — the 202 is dominated by a
// durable write, either a direct journal append, a scatter-gather
// whose WaitGroup.Wait collects every owner's ack, or a remote
// /feedback RPC whose contract is journal-before-ack.
package b

import (
	"context"
	"net/http"
	"sync"

	"alex/internal/server"
	"alex/internal/wal"
)

type router struct {
	log    *wal.Log
	client *server.Client
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
}

// directAppend journals synchronously before the ack.
func (r *router) directAppend(w http.ResponseWriter, p []byte) {
	if _, err := r.log.Append(p); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, nil)
		return
	}
	writeJSON(w, http.StatusAccepted, nil)
}

// gatheredFanout is PR 7's fix and the router's /feedback handler: each
// owner is posted its slice, the Wait is the point where every post has
// provably completed, and it dominates the ack.
func (r *router) gatheredFanout(w http.ResponseWriter, ctx context.Context, slices [][]server.LinkJSON) {
	var wg sync.WaitGroup
	for _, p := range slices {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.client.FeedbackResult(ctx, p, false)
		}()
	}
	wg.Wait()
	writeJSON(w, http.StatusAccepted, nil)
}

// remoteFeedback relies on the RPC contract: a non-error FeedbackResult
// return means the remote shard journaled and fsynced before acking.
func (r *router) remoteFeedback(w http.ResponseWriter, ctx context.Context, p []server.LinkJSON) {
	if _, err := r.client.FeedbackResult(ctx, p, false); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, nil)
		return
	}
	writeJSON(w, http.StatusAccepted, nil)
}

// nonAckStatuses: only the 202 durability promise is txnorder's
// business; errors and throttles need no barrier.
func (r *router) nonAckStatuses(w http.ResponseWriter) {
	writeJSON(w, http.StatusTooManyRequests, nil)
	writeJSON(w, http.StatusServiceUnavailable, nil)
}
