// Command synthgen materializes a built-in synthetic dataset-pair
// profile as three N-Triples files, ready for alexlink and alexd:
//
//	synthgen -profile dbpedia-nba-nytimes -dir /tmp/nba
//
// writes ds1.nt, ds2.nt and truth.nt (owl:sameAs ground truth) to -dir.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"alex"
)

func main() {
	profile := flag.String("profile", "dbpedia-nba-nytimes", "built-in profile name (see -list)")
	dir := flag.String("dir", ".", "output directory")
	scale := flag.Float64("scale", 1.0, "entity-count scale factor")
	list := flag.Bool("list", false, "list profiles and exit")
	flag.Parse()

	if *list {
		var names []string
		for _, p := range alex.Profiles() {
			names = append(names, fmt.Sprintf("%-22s %s", p.Name, p.Description))
		}
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	prof, ok := alex.ProfileByName(*profile)
	if !ok {
		fatal(fmt.Errorf("unknown profile %q", *profile))
	}
	if *scale != 1 {
		prof = prof.Scale(*scale)
	}
	ds := alex.GenerateDataset(prof)

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	writeGraph(filepath.Join(*dir, "ds1.nt"), ds.G1)
	writeGraph(filepath.Join(*dir, "ds2.nt"), ds.G2)
	writeTruth(filepath.Join(*dir, "truth.nt"), ds)
	fmt.Printf("wrote %s/{ds1.nt (%d triples), ds2.nt (%d triples), truth.nt (%d links)}\n",
		*dir, ds.G1.Size(), ds.G2.Size(), ds.GroundTruth.Len())
}

func writeGraph(path string, g *alex.Graph) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := alex.WriteNTriples(f, g); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func writeTruth(path string, ds *alex.SynthDataset) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(f)
	sameAs := alex.IRI("http://www.w3.org/2002/07/owl#sameAs")
	for _, l := range ds.GroundTruth.Slice() {
		fmt.Fprintf(w, "%s\n", alex.Triple{S: ds.Dict.Term(l.E1), P: sameAs, O: ds.Dict.Term(l.E2)})
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "synthgen: %v\n", err)
	os.Exit(1)
}
