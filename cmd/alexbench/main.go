// Command alexbench regenerates every table and figure of the paper's
// evaluation (§7, appendices B-D) on the synthetic dataset-pair
// stand-ins. Run a single experiment by id or all of them:
//
//	alexbench -exp fig2a
//	alexbench -exp all -scale 0.5
//
// Or run the quality pipeline of Figures 2-4 (PARIS, then ALEX with a
// ground-truth oracle) on N-Triples files, such as synthgen writes:
//
//	alexbench -ds1 a.nt -ds2 b.nt -truth truth.nt
//
// Experiment ids: table1, fig2a, fig2b, fig2c, fig3a, fig3b, fig3c,
// fig4a, fig4b, fig4c, fig4d, fig5a, fig5b, fig6, fig7, fig8, fig9,
// fig10, fig11, timing, ablation-policy, ablation-epsilon,
// ablation-theta, ablation-rollback.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"alex/internal/experiments"
	"alex/internal/pprofserve"
)

var experimentOrder = []string{
	"table1",
	"fig2a", "fig2b", "fig2c",
	"fig3a", "fig3b", "fig3c",
	"fig4a", "fig4b", "fig4c", "fig4d",
	"fig5a", "fig5b",
	"fig6", "fig7",
	"timing",
	"fig8", "fig9", "fig10", "fig11",
	"querydriven", "summary", "multiseed", "crowd",
	"ablation-policy", "ablation-epsilon", "ablation-theta", "ablation-rollback",
}

var qualityProfiles = map[string]string{
	"fig2a": "dbpedia-nytimes",
	"fig2b": "dbpedia-drugbank",
	"fig2c": "dbpedia-lexvo",
	"fig3a": "opencyc-nytimes",
	"fig3b": "opencyc-drugbank",
	"fig3c": "opencyc-lexvo",
	"fig4a": "dbpedia-dogfood",
	"fig4b": "opencyc-dogfood",
	"fig4c": "dbpedia-nba-nytimes",
	"fig4d": "opencyc-nba-nytimes",
	"fig8":  "dbpedia-opencyc",
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	scale := flag.Float64("scale", 1.0, "entity-count scale factor for quicker runs")
	seed := flag.Int64("seed", 42, "feedback oracle seed")
	csvDir := flag.String("csv", "", "also write per-episode series as CSV files into this directory")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (off when empty)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	ds1 := flag.String("ds1", "", "N-Triples file of dataset 1 (file mode, with -ds2 and -truth)")
	ds2 := flag.String("ds2", "", "N-Triples file of dataset 2 (file mode)")
	truth := flag.String("truth", "", "N-Triples file of ground-truth owl:sameAs links (file mode)")
	flag.Parse()
	csvOut = *csvDir

	if addr, err := pprofserve.Start(*pprofAddr); err != nil {
		fmt.Fprintf(os.Stderr, "alexbench: pprof: %v\n", err)
		os.Exit(1)
	} else if addr != "" {
		fmt.Printf("pprof on http://%s/debug/pprof/\n", addr)
	}

	if *list {
		fmt.Println(strings.Join(experimentOrder, "\n"))
		return
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed}
	if *ds1 != "" || *ds2 != "" || *truth != "" {
		if *ds1 == "" || *ds2 == "" || *truth == "" {
			fmt.Fprintln(os.Stderr, "alexbench: file mode needs all of -ds1, -ds2 and -truth")
			flag.Usage()
			os.Exit(2)
		}
		r, err := experiments.RunQualityFiles(*ds1, *ds2, *truth, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alexbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(r.Report())
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentOrder
	}
	for _, id := range ids {
		start := time.Now()
		fmt.Printf("==================== %s ====================\n", id)
		if err := run(id, opts); err != nil {
			fmt.Fprintf(os.Stderr, "alexbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// csvOut, when non-empty, receives per-episode CSV files for quality
// experiments.
var csvOut string

func writeCSV(id string, r *experiments.QualityRun) {
	if csvOut == "" {
		return
	}
	if err := os.MkdirAll(csvOut, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "alexbench: csv: %v\n", err)
		return
	}
	path := filepath.Join(csvOut, id+".csv")
	if err := os.WriteFile(path, []byte(r.Series.CSV()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "alexbench: csv: %v\n", err)
		return
	}
	fmt.Printf("(series written to %s)\n", path)
}

func run(id string, opts experiments.Options) error {
	if prof, ok := qualityProfiles[id]; ok {
		r, err := experiments.RunQuality(prof, opts)
		if err != nil {
			return err
		}
		fmt.Print(r.Report())
		writeCSV(id, r)
		return nil
	}
	switch id {
	case "table1":
		fmt.Print(experiments.FormatTable1(experiments.Table1(opts.Scale)))
	case "fig5a", "fig5b":
		r, err := experiments.Fig5("dbpedia-nytimes", opts.Scale)
		if err != nil {
			return err
		}
		fmt.Print(r.Report())
	case "fig6":
		c, err := experiments.Fig6Blacklist("dbpedia-nytimes", opts)
		if err != nil {
			return err
		}
		fmt.Print(c.Report())
	case "fig7":
		r, err := experiments.Fig7Rollback("dbpedia-nytimes", opts)
		if err != nil {
			return err
		}
		fmt.Print(r.Report())
	case "fig9":
		c, err := experiments.Fig9IncorrectFeedback("dbpedia-nytimes", opts)
		if err != nil {
			return err
		}
		fmt.Print(c.Report())
	case "fig10":
		s, err := experiments.Fig10StepSize("dbpedia-nytimes", opts, nil)
		if err != nil {
			return err
		}
		fmt.Print(s.Report())
	case "fig11":
		s, err := experiments.Fig11EpisodeSize("dbpedia-nytimes", opts, nil)
		if err != nil {
			return err
		}
		fmt.Print(s.Report())
	case "crowd":
		r, err := experiments.CrowdFeedback("dbpedia-nytimes", opts)
		if err != nil {
			return err
		}
		fmt.Print(r.Report())
	case "summary":
		rows, err := experiments.Summary(opts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSummary(rows))
	case "multiseed":
		r, err := experiments.RunMultiSeed("dbpedia-nytimes", opts, 5)
		if err != nil {
			return err
		}
		fmt.Print(r.Report())
	case "querydriven":
		r, err := experiments.RunQueryDriven("opencyc-nytimes", opts)
		if err != nil {
			return err
		}
		fmt.Print(r.Report())
	case "timing":
		rows, err := experiments.ExecutionTime(nil, opts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTiming(rows))
	case "ablation-policy":
		c, err := experiments.AblationPolicy("dbpedia-nytimes", opts)
		if err != nil {
			return err
		}
		fmt.Print(c.Report())
	case "ablation-epsilon":
		s, err := experiments.AblationEpsilon("dbpedia-nytimes", opts, nil)
		if err != nil {
			return err
		}
		fmt.Print(s.Report())
	case "ablation-theta":
		s, err := experiments.AblationTheta("dbpedia-nytimes", opts, nil)
		if err != nil {
			return err
		}
		fmt.Print(s.Report())
	case "ablation-rollback":
		s, err := experiments.AblationRollbackThreshold("dbpedia-nytimes", opts, nil)
		if err != nil {
			return err
		}
		fmt.Print(s.Report())
	default:
		return fmt.Errorf("unknown experiment %q (use -list)", id)
	}
	return nil
}
