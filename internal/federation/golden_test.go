package federation

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"alex/internal/sparql"
	"alex/internal/synth"
)

// The golden harness is the proof obligation of the read path: on both
// store backends, a plan that has learned nothing (cold), one that has
// seen one execution (learned) and one that has seen two (refined) must
// produce exactly the answers frozen under testdata/golden, and the
// cold one must execute exactly the frozen join orders. The files were written by the evaluator this package
// used to carry as a baseline (written-order joins, a cloned links.Set
// per intermediate row, one worker) and by its plan-time planner, at
// the last commit that had them; testdata/golden/README.md gives the
// command. Identity is therefore asserted against data, not against a
// second implementation kept alive for the purpose.
//
// "Exactly the answers" is judged on canonicalResult: the solution
// multiset, per-solution provenance and Ask. The engine has never
// guaranteed a row order beyond ORDER BY.

// The committed files were not written by this evaluator; see
// testdata/golden/README.md before using the flag.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden from this evaluator's answers instead of asserting against it")

// goldenEntry is the frozen reference for one world × query.
type goldenEntry struct {
	// Result is canonicalResult of the reference answer, one element
	// per line, or a digest and the line count when that is long.
	Result []string `json:"result"`
	// StaticOrders is the multiset of join orders static CountMatch
	// estimates alone give, one per group evaluation, as sorted
	// "order xN" strings: what a plan that has learned nothing executes.
	StaticOrders []string `json:"static_orders"`
}

// goldenLines is how a canonical result is stored and compared: line
// by line while that stays reviewable, as a digest beyond that (the
// synth worlds answer with hundreds of rows).
func goldenLines(canon string) []string {
	lines := strings.Split(strings.TrimSuffix(canon, "\n"), "\n")
	if len(lines) <= 40 && len(canon) <= 2048 {
		return lines
	}
	return []string{fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(canon))), fmt.Sprintf("lines=%d", len(lines))}
}

// orderCounts folds executed-order traces into a sorted multiset.
func orderCounts(traces []string) []string {
	counts := map[string]int{}
	for _, tr := range traces {
		counts[tr]++
	}
	out := make([]string, 0, len(counts))
	for tr, n := range counts {
		out = append(out, fmt.Sprintf("%s x%d", tr, n))
	}
	sort.Strings(out)
	return out
}

// traced returns a copy of f with a recorder of executed join orders.
func traced(f *Federator) (*Federator, func() []string) {
	fo := copyOf(f)
	var traces []string
	fo.SetExecTrace(func(_ *sparql.GroupGraphPattern, order []int) {
		traces = append(traces, fmt.Sprint(order))
	})
	return fo, func() []string {
		out := orderCounts(traces)
		traces = nil
		return out
	}
}

func goldenPath(world string) string {
	return filepath.Join("testdata", "golden", world+".json")
}

func loadGolden(t *testing.T, world string) map[string]goldenEntry {
	t.Helper()
	data, err := os.ReadFile(goldenPath(world))
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	var entries map[string]goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("%s: %v", goldenPath(world), err)
	}
	return entries
}

func writeGolden(t *testing.T, world string, f *Federator, queries map[string]string) {
	t.Helper()
	entries := map[string]goldenEntry{}
	for name, q := range queries {
		fresh, orders := traced(f) // no plan cache: nothing learned
		ref, err := fresh.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		entries[name] = goldenEntry{Result: goldenLines(canonicalResult(ref)), StaticOrders: orders()}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(world)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(world), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// rerunsRankedGroup reports whether evaluating g enters a group of two
// or more patterns more than once: one reached through an OPTIONAL,
// which runs once per input row. From its second entry on, such a group
// is ranked by the counters its earlier entries left in the same
// query's RuntimeStats, so even a fresh plan may leave the order static
// estimates give; a single-pattern group is never ranked, however often
// it runs. No query of the harness has one today (every OPTIONAL here
// holds one pattern; TestReenteredGroupRanksByItsOwnCounters shows the
// case), so the frozen orders are asserted on all of them.
func rerunsRankedGroup(g *sparql.GroupGraphPattern, reentered bool) bool {
	if g == nil {
		return false
	}
	if reentered && len(g.Triples) > 1 {
		return true
	}
	for _, opt := range g.Optionals {
		if rerunsRankedGroup(opt, true) {
			return true
		}
	}
	for _, alts := range g.Unions {
		for _, alt := range alts {
			if rerunsRankedGroup(alt, reentered) {
				return true
			}
		}
	}
	return false
}

// goldenRuns names the executions each plan cache sees: the plan has
// learned nothing, has folded in one execution, has folded in two.
var goldenRuns = []string{"cold", "learned", "refined"}

// assertGolden is the harness core. For every query, both backends (the
// federator as built, and its twin over mmap'd segments) get a plan
// cache of their own and run cold, learned and refined. Every run must answer as frozen; the cold run must also
// execute the frozen join orders, unless the query re-enters a ranked
// group (rerunsRankedGroup), and every run must execute the same orders
// on both backends.
func assertGolden(t *testing.T, world string, fmem *Federator, queries map[string]string) {
	t.Helper()
	if *updateGolden {
		writeGolden(t, world, fmem, queries)
		return
	}
	golden := loadGolden(t, world)
	if len(golden) != len(queries) {
		t.Errorf("%s holds %d entries, the harness has %d queries", goldenPath(world), len(golden), len(queries))
	}
	fdisk := diskTwin(t, fmem)
	for i := range fmem.sources {
		assertCountMatchEqual(t, fmem.sources[i].Graph, fdisk.sources[i].Graph)
	}
	for name, q := range queries {
		name, q := name, q
		t.Run(name, func(t *testing.T) {
			want, ok := golden[name]
			if !ok {
				t.Fatalf("no golden entry in %s", goldenPath(world))
			}
			parsed, err := sparql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			frozenOrders := !rerunsRankedGroup(parsed.Where, false)
			var memOrders [][]string // per run, to hold the disk twin to
			for _, b := range []struct {
				name string
				fed  *Federator
			}{{"mem", fmem}, {"disk", fdisk}} {
				fo, orders := traced(b.fed)
				fo.SetPlanCache(NewPlanCache(16))
				for r, run := range goldenRuns {
					label := b.name + " " + run
					got, err := fo.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if lines := goldenLines(canonicalResult(got)); !slices.Equal(lines, want.Result) {
						t.Errorf("%s diverges from golden:\n--- golden ---\n%s\n--- got ---\n%s",
							label, strings.Join(want.Result, "\n"), strings.Join(lines, "\n"))
					}
					ran := orders()
					if r == 0 && frozenOrders && !slices.Equal(ran, want.StaticOrders) {
						t.Errorf("%s executed join orders %v, golden %v", label, ran, want.StaticOrders)
					}
					if b.fed == fmem {
						memOrders = append(memOrders, ran)
					} else if !slices.Equal(ran, memOrders[r]) {
						t.Errorf("%s executed join orders %v, the mem backend %v", label, ran, memOrders[r])
					}
				}
			}
		})
	}
}

// goldenChainQueries joins across the three-source sameAs chain.
func goldenChainQueries() map[string]string {
	return map[string]string{
		"multi-hop": `SELECT ?name ?price WHERE {
			?p <http://b/label> "Aspirin" .
			?p <http://a/name> ?name .
			?p <http://c/price> ?price .
		}`,
		"multi-hop-reordered-source": `SELECT ?name ?price WHERE {
			?p <http://a/name> ?name .
			?p <http://c/price> ?price .
			?p <http://b/label> "Aspirin" .
		}`,
		"optional-cross-source": `SELECT ?p ?name ?price WHERE {
			?p <http://b/label> "Aspirin" .
			OPTIONAL { ?p <http://a/name> ?name . }
			OPTIONAL { ?p <http://c/price> ?price . }
		}`,
		"scan-all": `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`,
		// An unbound-predicate pattern joined with a selective one:
		// however the planner orders them, the unbound-predicate
		// pattern must still visit every source.
		"unbound-predicate-reordered": `SELECT ?p ?rel ?v WHERE {
			?p ?rel ?v .
			?p <http://b/label> "Aspirin" .
		}`,
	}
}

// goldenSynthWorld is a down-scaled synth dataset pair with the
// ground-truth links installed: dense sameAs fan-out, realistic value
// distributions and multi-segment stores.
func goldenSynthWorld(t *testing.T, profile string) *Federator {
	t.Helper()
	prof, ok := synth.ProfileByName(profile)
	if !ok {
		t.Fatalf("unknown profile %q", profile)
	}
	ds := synth.Generate(prof.Scale(0.1))
	f := New(ds.Dict)
	if err := f.AddSource("ds1", ds.G1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSource("ds2", ds.G2); err != nil {
		t.Fatal(err)
	}
	f.SetLinks(ds.GroundTruth)
	return f
}

func goldenSynthQueries(profile string) map[string]string {
	queries := map[string]string{
		"cross-source-join": `SELECT ?e ?n ?g WHERE {
			?e <http://ds1.example.org/onto/label> ?n .
			?e <http://ds2.example.org/prop/group> ?g .
		}`,
		"selective-category": `SELECT ?e ?n WHERE {
			?e <http://ds1.example.org/onto/label> ?n .
			?e <http://ds1.example.org/onto/category> ?c .
			?e <http://ds2.example.org/prop/group> ?c .
		}`,
		"optional-cross": `SELECT ?e ?n ?b WHERE {
			?e <http://ds1.example.org/onto/label> ?n .
			OPTIONAL { ?e <http://ds2.example.org/prop/born> ?b . }
		}`,
		"filtered-join": `SELECT ?e ?g WHERE {
			?e <http://ds2.example.org/prop/group> ?g .
			?e <http://ds1.example.org/onto/type> ?ty .
			FILTER(?g != "none")
		}`,
		"distinct-groups": `SELECT DISTINCT ?g WHERE {
			?e <http://ds1.example.org/onto/label> ?n .
			?e <http://ds2.example.org/prop/group> ?g .
		} ORDER BY ?g`,
		"count-per-group": `SELECT ?g (COUNT(?e) AS ?n) WHERE {
			?e <http://ds1.example.org/onto/type> ?ty .
			?e <http://ds2.example.org/prop/group> ?g .
		} GROUP BY ?g`,
	}
	if profile == "skewed-hub" {
		// The query shape the profile is built to mislead: static
		// estimates schedule the hub fan-out before the type filter, a
		// plan that has seen one execution flips them. Either order
		// must produce the same rows + provenance.
		queries["hub-fanout"] = fmt.Sprintf(`SELECT ?e ?x WHERE {
			?e <http://ds1.example.org/onto/category> %q .
			?e <http://ds2.example.org/prop/connectedWith> ?x .
			?e <http://ds1.example.org/onto/type> "active" .
		}`, synth.SkewSeedCategory)
	}
	return queries
}

func TestGoldenNewsWorld(t *testing.T) {
	f, _, _ := newsWorld(t)
	assertGolden(t, "news", f, newsQueries())
}

func TestGoldenChainWorld(t *testing.T) {
	f, _ := chainWorld(t)
	assertGolden(t, "chain", f, goldenChainQueries())
}

// TestGoldenSynthProfiles covers every built-in synth profile; short
// mode keeps one paper profile plus the skewed one, whose whole point
// is that a learned plan executes a different join order than a cold
// one — and must still answer identically.
func TestGoldenSynthProfiles(t *testing.T) {
	var names []string
	for _, p := range synth.Profiles() {
		names = append(names, p.Name)
	}
	if testing.Short() {
		names = []string{"dbpedia-nytimes", "skewed-hub"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			assertGolden(t, "synth-"+name, goldenSynthWorld(t, name), goldenSynthQueries(name))
		})
	}
}
