// The /query response writer. An answer leaves the federator as
// dictionary IDs and becomes bytes here, once: no Binding map, no
// link set, no RowJSON, no reflection. The bytes are exactly what
// encoding/json (SetEscapeHTML(false), Encoder's trailing newline)
// makes of the QueryResponse the same answer decodes to — the encoder is
// kept as this writer's oracle (wire_test.go), and as the codec of every
// other endpoint, where requests are rare and bodies small.
package server

import (
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"alex/internal/federation"
	"alex/internal/rdf"
	"alex/internal/sparql"
)

// MaxQueryBodyBytes bounds a /query or /feedback request body, on a
// shard and on the router in front of it; a longer one is refused with
// 413.
const MaxQueryBodyBytes = 1 << 20

// wireBuf is the per-request scratch of handleQuery: b holds the request
// body, then the response; order is the projection's columns by name.
type wireBuf struct {
	b     []byte
	order []int
}

// wireBufs recycles wireBufs across requests. A buffer a large answer
// grew past maxPooledWireBuf is dropped instead of pinned in the pool.
var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

const maxPooledWireBuf = 64 << 10

func putWireBuf(wb *wireBuf) {
	if cap(wb.b) <= maxPooledWireBuf {
		wireBufs.Put(wb)
	}
}

// ReadQueryBody reads a /query or /feedback request body of at most
// MaxQueryBodyBytes into buf[:0], growing it as io.ReadAll would. When
// it fails, status is what to refuse the request with: 413 for a body
// past the limit, 400 for one that could not be read.
func ReadQueryBody(w http.ResponseWriter, r *http.Request, buf []byte) (body []byte, status int, err error) {
	body = buf[:0]
	if cap(body) == 0 {
		body = make([]byte, 0, 512)
	}
	limited := http.MaxBytesReader(w, r.Body, MaxQueryBodyBytes)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := limited.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, http.StatusOK, nil
		}
		if err != nil {
			status = http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			return body, status, err
		}
	}
}

// appendQueryResponse appends the JSON encoding of the QueryResponse
// for ans at snapshot version, newline included, to wb.b.
func (s *Server) appendQueryResponse(wb *wireBuf, ans *federation.Answer, version uint64) {
	b := append(wb.b, '{')
	if len(ans.Vars) > 0 {
		b = append(b, `"vars":[`...)
		for j, v := range ans.Vars {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, v)
		}
		b = append(b, `],`...)
	}
	b = append(b, `"rows":[`...)
	// A JSON object from a map has its keys sorted; so has a binding.
	wb.order = wb.order[:0]
	for j := range ans.Vars {
		wb.order = append(wb.order, j)
	}
	slices.SortFunc(wb.order, func(x, y int) int { return strings.Compare(ans.Vars[x], ans.Vars[y]) })
	for k := 0; k < ans.Len(); k++ {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"binding":{`...)
		bound := 0
		for i, j := range wb.order {
			if i > 0 && ans.Vars[j] == ans.Vars[wb.order[i-1]] {
				continue // SELECT ?x ?x is one key
			}
			t, ok := ans.Term(k, j)
			if !ok {
				continue
			}
			if bound > 0 {
				b = append(b, ',')
			}
			bound++
			b = appendJSONString(b, ans.Vars[j])
			b = append(b, ':')
			b = appendTermJSON(b, t)
		}
		b = append(b, '}')
		if ls := ans.Links(k); len(ls) > 0 {
			b = append(b, `,"links":[`...)
			for i, l := range ls {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"e1":`...)
				b = appendJSONString(b, s.dict.Term(l.E1).Value)
				b = append(b, `,"e2":`...)
				b = appendJSONString(b, s.dict.Term(l.E2).Value)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	if ans.Form == sparql.FormAsk {
		b = append(b, `,"ask":`...)
		b = strconv.AppendBool(b, ans.Ask)
	}
	b = append(b, `,"snapshot_version":`...)
	b = strconv.AppendUint(b, version, 10)
	wb.b = append(b, '}', '\n')
}

// appendTermJSON appends t as a TermJSON object.
func appendTermJSON(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.KindLiteral:
		b = append(b, `{"kind":"literal","value":`...)
	case rdf.KindBlank:
		b = append(b, `{"kind":"blank","value":`...)
	default:
		b = append(b, `{"kind":"iri","value":`...)
	}
	b = appendJSONString(b, t.Value)
	if t.Datatype != "" {
		b = append(b, `,"datatype":`...)
		b = appendJSONString(b, t.Datatype)
	}
	if t.Lang != "" {
		b = append(b, `,"lang":`...)
		b = appendJSONString(b, t.Lang)
	}
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json
// does with HTML escaping off: `"` and `\` escaped, control bytes as
// \b \f \n \r \t or \u00XX, each invalid UTF-8 byte as \ufffd, U+2028
// and U+2029 as \u2028 and \u2029, everything else — `<`, `>`, `&` and
// DEL included — as is.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0 // s[start:i] is pending: bytes that go out as they are
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
