// Scatter-gather merge: combining full-read answers from several
// shards into one response that is canonically identical to what a
// single-node alexd over the same data would return.
//
// Every shard serves FULL reads (its own partition unioned with the
// newest replicated peer manifests — see internal/server's fleet
// role), so scatter-gather here is NOT the federation layer's
// partial-result union: each response is a complete answer, and on a
// converged fleet all responses are equal. The merge therefore has one
// job — return exactly one shard's answer when they agree, and degrade
// gracefully when a replication window makes them differ:
//
//   - Rows are a max-multiplicity multiset union in first-seen order,
//     iterating shards in ID order. SELECT without DISTINCT preserves
//     duplicate solutions, so a plain set-dedup would drop rows the
//     single-node path keeps; taking the MAX multiplicity per row
//     (never the sum) means N agreeing shards contribute each row
//     exactly as many times as any one of them did.
//   - Row identity is an injective encoding of the bindings AND the
//     provenance links (every field length-prefixed, so no
//     concatenation of distinct rows collides).
//   - DegradedSources keeps first-response order, filtered to sources
//     degraded in EVERY response — a source only the slowest shard saw
//     as down is not reported down fleet-wide. Equal responses pass
//     through unchanged.
//   - Ask is OR (equal on a converged fleet); Vars come from the first
//     response; SnapshotVersion is the max seen (per-shard counters
//     are not comparable, the field is informational only).
package fleet

import (
	"sort"
	"strconv"
	"strings"

	"alex/internal/server"
)

// writeField appends one length-prefixed string, making the
// concatenation of any field sequence injective.
func writeField(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// rowKey is the injective identity of an answer row: sorted variable
// bindings (kind, value, datatype, lang) plus sorted provenance links.
func rowKey(row server.RowJSON) string {
	vars := make([]string, 0, len(row.Binding))
	for v := range row.Binding {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		t := row.Binding[v]
		writeField(&b, v)
		writeField(&b, t.Kind)
		writeField(&b, t.Value)
		writeField(&b, t.Datatype)
		writeField(&b, t.Lang)
	}
	b.WriteByte('|')
	ls := append([]server.LinkJSON(nil), row.Links...)
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].E1 != ls[j].E1 {
			return ls[i].E1 < ls[j].E1
		}
		return ls[i].E2 < ls[j].E2
	})
	for _, l := range ls {
		writeField(&b, l.E1)
		writeField(&b, l.E2)
	}
	return b.String()
}

// mergeResponses gathers per-shard full answers (in shard-ID order,
// nil entries allowed for shards that did not answer) into one
// response. At least one response must be non-nil.
func mergeResponses(resps []*server.QueryResponse) *server.QueryResponse {
	out := &server.QueryResponse{Rows: []server.RowJSON{}}
	first := true
	emitted := make(map[string]int) // row key -> multiplicity already emitted
	for _, r := range resps {
		if r == nil {
			continue
		}
		if first {
			out.Vars = r.Vars
			out.DegradedSources = append([]string(nil), r.DegradedSources...)
			first = false
		} else {
			out.DegradedSources = intersectOrdered(out.DegradedSources, r.DegradedSources)
		}
		if r.SnapshotVersion > out.SnapshotVersion {
			out.SnapshotVersion = r.SnapshotVersion
		}
		if r.Ask != nil {
			if out.Ask == nil {
				v := *r.Ask
				out.Ask = &v
			} else {
				*out.Ask = *out.Ask || *r.Ask
			}
		}
		local := make(map[string]int, len(r.Rows))
		for _, row := range r.Rows {
			k := rowKey(row)
			local[k]++
			if local[k] > emitted[k] {
				out.Rows = append(out.Rows, row)
				emitted[k]++
			}
		}
	}
	if len(out.DegradedSources) == 0 {
		out.DegradedSources = nil
	}
	return out
}

// intersectOrdered keeps the elements of a (in a's order) that also
// appear in b.
func intersectOrdered(a, b []string) []string {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	out := a[:0]
	for _, s := range a {
		if in[s] {
			out = append(out, s)
		}
	}
	return out
}
