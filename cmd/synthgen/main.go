// Command synthgen materializes a built-in synthetic dataset-pair
// profile as three N-Triples files, ready for alexbench's file mode and
// alexd:
//
//	synthgen -profile dbpedia-nba-nytimes -dir /tmp/nba
//
// writes ds1.nt, ds2.nt and truth.nt (owl:sameAs ground truth) to -dir.
package main

import (
	"flag"
	"fmt"
	"os"
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
	if err := ds.WriteFiles(*dir); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s/{ds1.nt (%d triples), ds2.nt (%d triples), truth.nt (%d links)}\n",
		*dir, ds.G1.Size(), ds.G2.Size(), ds.GroundTruth.Len())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "synthgen: %v\n", err)
	os.Exit(1)
}
