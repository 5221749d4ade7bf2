// Fixture a: PR 7's bug shape — the router's fan-out path acks 202
// while the durable write is still in flight. Kill the process right
// after the ack and a shard that never journaled its slice forgets the
// batch the client was just promised.
package a

import (
	"net/http"
	"sync"

	"alex/internal/wal"
)

type router struct {
	log *wal.Log
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
}

// ackBeforeFanout: the launches are asynchronous and nothing collects
// them before the 202 — the literal PR-7 shape.
func (r *router) ackBeforeFanout(w http.ResponseWriter, slices [][]byte) {
	for _, p := range slices {
		p := p
		go func() {
			r.log.Append(p)
		}()
	}
	writeJSON(w, http.StatusAccepted, nil) // want `202 Accepted on the fan-out path without a dominating durable write`
}

// waitAfterAck: the Wait exists but runs after the client already has
// its 202 — dominance is about order, not presence.
func (r *router) waitAfterAck(w http.ResponseWriter, slices [][]byte) {
	var wg sync.WaitGroup
	for _, p := range slices {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.log.Append(p)
		}()
	}
	writeJSON(w, http.StatusAccepted, nil) // want `202 Accepted on the fan-out path without a dominating durable write`
	wg.Wait()
}

// conditionalAppend journals on one branch and acks on all of them.
func (r *router) conditionalAppend(w http.ResponseWriter, p []byte, durable bool) {
	if durable {
		r.log.Append(p)
	}
	writeJSON(w, http.StatusAccepted, nil) // want `202 Accepted on the fan-out path without a dominating durable write`
}

// bareWait: a Wait with no journaling goroutine behind it vouches for
// nothing.
func (r *router) bareWait(w http.ResponseWriter, wg *sync.WaitGroup) {
	wg.Wait()
	writeJSON(w, http.StatusAccepted, nil) // want `202 Accepted on the fan-out path without a dominating durable write`
}
