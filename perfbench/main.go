// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator as a closed loop (one client, one op in flight) through three
// seeded workloads and reports host-side metrics a user of the simulator
// waits on, plus a traced per-module cost ledger.
//
//	perfbench --workload shm_sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// measured in a second, traced phase of the same run. --workload all runs
// every workload one after another and prefixes each metric with the
// workload name. The exit code is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"shm_sweep", "cluster_chaos", "serve_churn"}

// newWorkload builds the named workload's input generator for one seed.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "shm_sweep":
		return newShm(seed), nil
	case "cluster_chaos":
		return newClusterChaos(seed), nil
	case "serve_churn":
		return newServeChurn(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloadNames, ", "))
}

// result is the last line the benchmark prints.
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
	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds (and of the traced phase)")
	trace := flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	names := workloadNames
	if *name != "all" {
		names = []string{*name}
	}
	cfg := runConfig{seed: *seed, timed: time.Duration(*seconds) * time.Second, trace: *trace == 1, setups: 7}
	prov, err := provenance()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(prov)

	out := result{Metrics: map[string]metric{}}
	for _, n := range names {
		if _, err := newWorkload(n, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		fresh := func() workload { w, _ := newWorkload(n, *seed); return w }
		rep, err := runWorkload(n, fresh, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		rep.print(os.Stdout, cfg)
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		ms := rep.endToEnd()
		if cfg.trace {
			ms = rep.perLayer()
		}
		for k, m := range ms {
			if len(names) > 1 {
				k = n + "." + k
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is not finite\n", n, k)
				os.Exit(1)
			}
			out.Metrics[k] = m
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
