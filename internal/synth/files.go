package synth

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"alex/internal/links"
	"alex/internal/rdf"
)

// A dataset pair on disk is three N-Triples files: the two graphs, and
// the ground truth as owl:sameAs triples from a dataset-1 entity to a
// dataset-2 entity. WriteFiles names them ds1.nt, ds2.nt and truth.nt;
// ReadFiles reads any three files of that shape.

// WriteFiles writes the pair into dir, which it creates if missing, as
// ds1.nt, ds2.nt and truth.nt.
func (ds *Dataset) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	truth := func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		sameAs := rdf.IRI(rdf.OWLSameAs)
		for _, l := range ds.GroundTruth.Slice() {
			fmt.Fprintf(bw, "%s\n", rdf.Triple{S: ds.Dict.Term(l.E1), P: sameAs, O: ds.Dict.Term(l.E2)})
		}
		return bw.Flush()
	}
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"ds1.nt", func(w io.Writer) error { return rdf.WriteNTriples(w, ds.G1) }},
		{"ds2.nt", func(w io.Writer) error { return rdf.WriteNTriples(w, ds.G2) }},
		{"truth.nt", truth},
	} {
		if err := writeFile(filepath.Join(dir, f.name), f.write); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// ReadFiles loads a dataset pair and its ground truth from N-Triples
// files into one dictionary. The entities of each dataset are its
// graph's subjects; the result has no Profile.
func ReadFiles(ds1, ds2, truth string) (*Dataset, error) {
	dict := rdf.NewDict()
	ds := &Dataset{Dict: dict, G1: rdf.NewGraphWithDict(dict), G2: rdf.NewGraphWithDict(dict), GroundTruth: links.NewSet()}
	tg := rdf.NewGraphWithDict(dict)
	for _, f := range []struct {
		path string
		g    *rdf.Graph
	}{{ds1, ds.G1}, {ds2, ds.G2}, {truth, tg}} {
		if err := readFile(f.path, f.g); err != nil {
			return nil, err
		}
	}
	ds.Entities1, ds.Entities2 = ds.G1.SubjectIDs(), ds.G2.SubjectIDs()
	tg.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, _, o rdf.ID) bool {
		ds.GroundTruth.Add(links.Link{E1: s, E2: o})
		return true
	})
	return ds, nil
}

func readFile(path string, g *rdf.Graph) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	//lint:ignore syncerr read-only handle opened with os.Open; Close has no buffered writes to lose
	defer f.Close()
	if _, err := rdf.ReadNTriples(f, g); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
