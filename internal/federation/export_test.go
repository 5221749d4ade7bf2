package federation

import (
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
	Name       string // "<world>/<backend>"
	Dict       *rdf.Dict
	Sources    []Source
	Links      links.Set
	Resilience Resilience
	Queries    map[string]string
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
		{"degraded", goldenDegradedWorld(t), goldenDegradedQueries()},
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
				Name:       w.name + "/" + backend,
				Dict:       f.dict,
				Sources:    f.sources,
				Links:      installedLinks(f),
				Resilience: f.res,
				Queries:    w.queries,
			})
		}
	}
	return out
}
