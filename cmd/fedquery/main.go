// Command fedquery is a command-line client of a running alexd daemon:
// it sends federated SPARQL queries and routes feedback on their
// answers back to the server — the end-to-end loop of the paper's
// Figure 1. The server owns the datasets, the link set and the learning
// loop, so several fedquery clients can share one evolving federation.
//
// One-shot:
//
//	fedquery -server localhost:8080 -query 'SELECT ?x WHERE { ... }' [-approve 0] [-reject 1]
//
// Interactive (a small REPL):
//
//	fedquery -server localhost:8080 -repl
//
// -approve/-reject take answer row indices. The server's current link
// set is served as owl:sameAs N-Triples at /links?format=ntriples.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"alex/internal/server"
)

func main() {
	addr := flag.String("server", "", "address of a running alexd (required)")
	query := flag.String("query", "", "SPARQL SELECT or ASK query")
	approve := flag.Int("approve", -1, "answer row index to approve")
	reject := flag.Int("reject", -1, "answer row index to reject")
	repl := flag.Bool("repl", false, "interactive mode: queries and feedback from stdin")
	flag.Parse()

	if *addr == "" || (*query == "" && !*repl) {
		fmt.Fprintln(os.Stderr, "fedquery: -server and either -query or -repl are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdin, os.Stdout, *addr, *query, *approve, *reject, *repl); err != nil {
		fmt.Fprintf(os.Stderr, "fedquery: %v\n", err)
		os.Exit(1)
	}
}

const replHelp = `commands:
  <SPARQL>            run a SELECT or ASK query on the server (end lines with \ to continue)
  approve <i>         approve answer row i of the last result
  reject <i>          reject answer row i of the last result
  links               show the server's published link count
  health              show the server health report
  help                this message
  quit                exit`

// run handles both one-shot (query) and interactive (repl, commands
// read from in) use against the alexd at addr.
func run(in io.Reader, out io.Writer, addr, query string, approve, reject int, repl bool) error {
	c := server.NewClient(addr)
	h, err := c.Healthz()
	if err != nil {
		return fmt.Errorf("cannot reach alexd at %s: %w", addr, err)
	}
	if repl {
		return runREPL(in, out, c, h)
	}

	res, err := c.Query(query)
	if err != nil {
		return err
	}
	if res.Ask != nil {
		fmt.Fprintf(out, "ASK -> %v\n", *res.Ask)
	} else {
		fmt.Fprintf(out, "%d answers (snapshot v%d):\n%s", len(res.Rows), res.SnapshotVersion, formatRows(res))
	}
	for _, fb := range []struct {
		idx     int
		approve bool
		verb    string
	}{{approve, true, "approve"}, {reject, false, "reject"}} {
		if fb.idx < 0 {
			continue
		}
		if fb.idx >= len(res.Rows) {
			return fmt.Errorf("%s index %d out of range", fb.verb, fb.idx)
		}
		if err := sendFeedback(c, res.Rows[fb.idx], fb.approve); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s answer %d (%d links)\n", pastTense(fb.approve), fb.idx, len(res.Rows[fb.idx].Links))
	}
	return nil
}

func runREPL(in io.Reader, out io.Writer, c *server.Client, h *server.HealthResponse) error {
	fmt.Fprintf(out, "fedquery -> alexd (snapshot v%d, %d candidate links). Type 'help'.\n",
		h.SnapshotVersion, h.CandidateLinks)

	var last *server.QueryResponse
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var pending strings.Builder

	prompt := func() {
		if pending.Len() > 0 {
			fmt.Fprint(out, "... ")
		} else {
			fmt.Fprint(out, "> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasSuffix(line, "\\") {
			pending.WriteString(strings.TrimSuffix(line, "\\"))
			pending.WriteByte(' ')
			prompt()
			continue
		}
		if pending.Len() > 0 {
			pending.WriteString(line)
			line = pending.String()
			pending.Reset()
		}
		if line == "" {
			prompt()
			continue
		}
		switch {
		case line == "quit" || line == "exit":
			return nil
		case line == "help":
			fmt.Fprintln(out, replHelp)
		case line == "links":
			ls, err := c.Links()
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			fmt.Fprintf(out, "%d candidate links (snapshot v%d, episode %d)\n", ls.Count, ls.SnapshotVersion, ls.Episode)
		case line == "health":
			h, err := c.Healthz()
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			fmt.Fprintf(out, "%s: snapshot v%d (%.1fs old), episode %d, %d links, queue %d/%d\n",
				h.Status, h.SnapshotVersion, h.SnapshotAgeSecs, h.Episode,
				h.CandidateLinks, h.QueueDepth, h.QueueCapacity)
		case strings.HasPrefix(line, "approve ") || strings.HasPrefix(line, "reject "):
			feedbackCommand(out, c, line, last)
		default:
			res, err := c.Query(line)
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				break
			}
			if res.Ask != nil {
				fmt.Fprintf(out, "ASK -> %v\n", *res.Ask)
				break
			}
			last = res
			fmt.Fprintf(out, "%d answer(s) (snapshot v%d):\n%s", len(res.Rows), res.SnapshotVersion, formatRows(res))
		}
		prompt()
	}
	return sc.Err()
}

func feedbackCommand(out io.Writer, c *server.Client, line string, last *server.QueryResponse) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		fmt.Fprintln(out, "usage: approve <row> | reject <row>")
		return
	}
	if last == nil {
		fmt.Fprintln(out, "no previous query result")
		return
	}
	i, err := strconv.Atoi(fields[1])
	if err != nil || i < 0 || i >= len(last.Rows) {
		fmt.Fprintf(out, "row index out of range (0..%d)\n", len(last.Rows)-1)
		return
	}
	row := last.Rows[i]
	if len(row.Links) == 0 {
		fmt.Fprintln(out, "that answer used no sameAs links; nothing to learn from")
		return
	}
	approve := fields[0] == "approve"
	if err := sendFeedback(c, row, approve); err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "%s %d link(s); the server will fold it into its next episode\n", pastTense(approve), len(row.Links))
}

func pastTense(approve bool) string {
	if approve {
		return "approved"
	}
	return "rejected"
}

func sendFeedback(c *server.Client, row server.RowJSON, approve bool) error {
	err := c.Feedback(row.Links, approve)
	if err == server.ErrQueueFull {
		return fmt.Errorf("server is backpressuring (feedback queue full); retry shortly")
	}
	return err
}

func formatRows(res *server.QueryResponse) string {
	vars := append([]string(nil), res.Vars...)
	sort.Strings(vars)
	var b strings.Builder
	for i, r := range res.Rows {
		fmt.Fprintf(&b, "[%d]", i)
		for _, v := range vars {
			if t, ok := r.Binding[v]; ok {
				fmt.Fprintf(&b, " ?%s=%s", v, formatTerm(t))
			}
		}
		if len(r.Links) > 0 {
			fmt.Fprintf(&b, " (links used: %d)", len(r.Links))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatTerm(t server.TermJSON) string {
	switch t.Kind {
	case "iri":
		return "<" + t.Value + ">"
	case "blank":
		return "_:" + t.Value
	default:
		s := strconv.Quote(t.Value)
		if t.Lang != "" {
			s += "@" + t.Lang
		} else if t.Datatype != "" {
			s += "^^<" + t.Datatype + ">"
		}
		return s
	}
}
