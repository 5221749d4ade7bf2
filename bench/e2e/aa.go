package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check and the
// tests need.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// runAA runs this binary 2n times per workload, every run with another
// seed, alternating between set A and set B, and prints for every
// workload × end-to-end metric both medians, how much worse B's is than
// A's, the spread of all 2n values (IQR as a share of the median, the
// driver's steadiness rule) and the bound. Both sets run the same code,
// so a difference or spread past the bound is the benchmark's noise,
// and the exit code says so. For the timings, `as clocked` is the
// spread of the same statistic of the same runs before it was put into
// reported units (the runs' "# raw" lines): what clock.go buys.
func runAA(n int, cfg config) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: -aa runs from the repository root: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: BENCHMARK.json: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 2
	}
	st := hostStamp(".")
	fmt.Printf("# A/A: two alternating sets of %d runs of one binary\n\n", n)
	fmt.Printf("nproc=%d go=%s commit=%s kernel=%s, %g measured seconds per run, seeds 1..%d.\n\n",
		st.Nproc, st.GoVersion, st.Commit, st.Kernel, cfg.seconds, 2*n)
	fmt.Println("`worse` is how much worse set B's median is than set A's; `spread` is the interquartile range of all runs over their median. Both must stay within `bound` (`setup_s`: `worse` only); the aim is half of it for `worse` and a third for `spread`. `as clocked` is the spread of the same runs' timings before they were put into reported units.")
	fmt.Println()
	fmt.Println("| workload | metric | median A | median B | worse | spread | as clocked | bound | verdict |")
	fmt.Println("|---|---|---:|---:|---:|---:|---:|---:|---|")
	exit := 0
	for _, w := range bf.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		clocked := map[string][]float64{}
		for i := 0; i < 2*n; i++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(i+1),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2e: run %d of %s: %v\n", i+1, w.Name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "e2e: run %d of %s printed no result: %v\n", i+1, w.Name, err)
				return 1
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			for _, l := range lines {
				var name string
				var v float64
				if _, err := fmt.Sscanf(string(l), "# raw %s %g", &name, &v); err == nil {
					clocked[name] = append(clocked[name], v)
				}
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := median(sortedCopy(sets[0][m.Name])), median(sortedCopy(sets[1][m.Name]))
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			spread := iqrPct(append(append([]float64(nil), sets[0][m.Name]...), sets[1][m.Name]...)) / 100
			verdict := "ok"
			switch {
			case worse > m.Bound || (spread > m.Bound && m.Name != "setup_s"):
				verdict = "PAST BOUND"
				exit = 1
			case worse > m.Bound/2 || (spread > m.Bound/3 && m.Name != "setup_s"):
				verdict = "over target"
			}
			asClocked := "–"
			if vs := clocked[m.Name]; len(vs) > 0 {
				asClocked = fmt.Sprintf("%.1f%%", iqrPct(vs))
			}
			fmt.Printf("| %s | %s (%s) | %.4g | %.4g | %+.1f%% | %.1f%% | %s | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, a, b, 100*worse, 100*spread, asClocked, 100*m.Bound, verdict)
		}
	}
	return exit
}
