// Command benchjson converts `go test -bench` output into a JSON
// file while echoing the original text through unchanged, so it can sit
// at the end of a benchmark pipe:
//
//	go test -bench BenchmarkSpaceBuild -cpu=1,2,4,8 ./internal/feature |
//	    go run ./cmd/benchjson -out BENCH_space.json
//
// Each benchmark result line becomes one JSON record with the metrics
// Go reports: ns/op always, plus pairs/s, queries/s, B/op and allocs/op
// when the benchmark emits them. The -cpu suffix of the benchmark name
// is parsed into its own field so scaling rows are directly comparable.
// The file is stamped with the host it was recorded on (core count,
// GOMAXPROCS, CPU model, Go version, commit): a number counts only on
// stated hardware.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// File is one BENCH_*.json: where the rows were taken, then the rows.
type File struct {
	Host Host  `json:"host"`
	Rows []Row `json:"rows"`
}

// Host states the hardware and toolchain behind a File's rows.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu,omitempty"` // the "cpu:" line go test prints
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// thisHost describes the machine benchjson runs on, which is the one at
// the head of its pipe. The commit carries "-dirty" when tracked files
// differ from it, and is "unknown" outside a git checkout.
func thisHost() Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// Row is one benchmark result.
type Row struct {
	Name          string  `json:"name"`
	CPUs          int     `json:"cpus"`
	Iterations    int64   `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	PairsPerSec   float64 `json:"pairs_per_sec,omitempty"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	BytesPerOp    float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp   float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_space.json", "JSON output file")
	flag.Parse()

	host := thisHost()
	var rows []Row
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if r, ok := parseLine(line); ok {
			rows = append(rows, r)
		} else if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			host.CPU = cpu
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(File{Host: host, Rows: rows}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d rows to %s\n", len(rows), *out)
}

// parseLine recognizes a result line such as
//
//	BenchmarkSpaceBuild/unblocked-8  2  512345678 ns/op  801234 pairs/s  96 B/op  3 allocs/op
//
// and returns false for everything else (headers, PASS, ok, …).
func parseLine(line string) (Row, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Row{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Row{}, false
	}
	r := Row{Name: f[0], CPUs: 1, Iterations: iters}
	if i := strings.LastIndexByte(f[0], '-'); i >= 0 {
		if n, err := strconv.Atoi(f[0][i+1:]); err == nil {
			r.Name, r.CPUs = f[0][:i], n
		}
	}
	// The rest alternates value, unit.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Row{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "pairs/s":
			r.PairsPerSec = v
		case "queries/s":
			r.QueriesPerSec = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	if r.NsPerOp == 0 {
		return Row{}, false
	}
	return r, true
}
