// Command perfbench is the adeptd benchmark. It drives service.Server
// in-process through Server.Handler().ServeHTTP — the daemon's real mux,
// middleware and JSON codec, in adeptd's default single-node
// configuration with an in-memory registry — from one closed-loop client,
// and prints one JSON result line.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench -workload hot-hits|fleet-fresh|inventory-churn -seed N -seconds S -trace 0|1
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a traced run, and the spans are written
// under -out. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: hot-hits, fleet-fresh or inventory-churn")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory the traced run writes its span files under")
	)
	flag.Parse()
	newWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have hot-hits, fleet-fresh, inventory-churn)\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, newWorkload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
