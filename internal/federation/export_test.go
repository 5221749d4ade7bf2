package federation

import (
	"fmt"
	"strings"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/synth"
)

// GoldenWorld is one world of the golden harness on one store backend,
// taken apart so that a test outside this package can rebuild it behind
// another front end: wire_test.go serves it through internal/server,
// which imports this package and so cannot be imported from inside it.
type GoldenWorld struct {
	Name    string // "<world>/<backend>"
	Dict    *rdf.Dict
	Sources []Source
	Links   links.Set
	Queries map[string]string
}

// GoldenWorlds returns every world the golden harness asserts (the
// synth profiles cut down in short mode as TestGoldenSynthProfiles
// does), each on the mem backend and as its disk twin.
func GoldenWorlds(t *testing.T) []GoldenWorld {
	t.Helper()
	type world struct {
		name    string
		fed     *Federator
		queries map[string]string
	}
	news, _, _ := newsWorld(t)
	chain, _ := chainWorld(t)
	worlds := []world{
		{"news", news, newsQueries()},
		{"chain", chain, goldenChainQueries()},
	}
	for _, p := range synth.Profiles() {
		if testing.Short() && p.Name != "dbpedia-nytimes" && p.Name != "skewed-hub" {
			continue
		}
		worlds = append(worlds, world{"synth-" + p.Name, goldenSynthWorld(t, p.Name), goldenSynthQueries(p.Name)})
	}
	var out []GoldenWorld
	for _, w := range worlds {
		for backend, f := range map[string]*Federator{"mem": w.fed, "disk": diskTwin(t, w.fed)} {
			out = append(out, GoldenWorld{
				Name:    w.name + "/" + backend,
				Dict:    f.dict,
				Sources: f.sources,
				Links:   installedLinks(f),
				Queries: w.queries,
			})
		}
	}
	return out
}

// JoinShapeWorld is the world of bench/e2e's join_disk workload on the
// disk backend, cut down: its three join shapes, a sibling of each that
// a shape-keyed plan serves with other constants, and sameAs lookups of
// a dozen entities, each a query of its own.
func JoinShapeWorld(t *testing.T) GoldenWorld {
	t.Helper()
	f, texts := joinShapeWorld(t, 0.1)
	f = diskTwin(t, f)
	queries := map[string]string{}
	sibling := strings.NewReplacer("LIMIT 50", "LIMIT 7", "LIMIT 20", "LIMIT 3", "ORDER BY ?l ?e ?n ?b ?h", "ORDER BY ?l ?e ?n ?b ?h LIMIT 9")
	for name, text := range texts {
		queries[name], queries[name+"-sibling"] = text, sibling.Replace(text)
	}
	for e := 0; e < 12; e++ {
		queries[fmt.Sprintf("lookup-E%d", e)] = fmt.Sprintf("SELECT ?n WHERE { <http://ds1.example.org/resource/E%d> <%s> ?n . }", e, synth.P2Name.Value)
	}
	return GoldenWorld{Name: "join-shapes/disk", Dict: f.dict, Sources: f.sources, Links: installedLinks(f), Queries: queries}
}
