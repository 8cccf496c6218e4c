// Command benchmark is the repository's one repeatable benchmark: four long
// workloads, end-to-end metrics from untraced runs and per-layer metrics
// from a separate traced run. See README.md in this directory.
//
//	go run ./benchmark -workload replay-day -seed 1            # end-to-end metrics
//	go run ./benchmark -workload replay-day -seed 1 -trace 1   # per-layer metrics
//	go run ./benchmark -agree 5                                # two interleaved sets of runs must agree
//
// "Host" time is what this Go process spends; "sim" time is the modelled GPU
// clock. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// runSeconds is the measuring time BENCHMARK.json declares for one run.
const runSeconds = 15

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: engine-closed, replay-day, storm-product or serve-http")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", runSeconds, "host seconds the timed replays should fill; the count is fixed from the warm-up replay's time, at least one")
		trace   = flag.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		scale   = flag.Float64("scale", 1, "workload size relative to the full benchmark (the package test uses 0.01)")
		spans   = flag.String("spans", "", "traced run: write the first 20000 requests' spans and the aggregates to this file")
		agree   = flag.Int("agree", 0, "run every workload in two interleaved sets of this many runs and compare their medians")
	)
	flag.Parse()
	if *agree > 0 {
		os.Exit(agreeMode(*agree, *seed, *seconds, *scale))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *scale <= 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -scale and -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	fmt.Printf("workload %s seed %d scale %g: nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		w.name, *seed, *scale, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	r := &runner{w: w, cfg: runConfig{seed: *seed, scale: *scale}, seconds: *seconds, log: os.Stdout}
	var res *result
	var err error
	if *trace == 1 {
		res, err = r.tracedRun(*spans)
	} else {
		res, err = r.endToEndRun()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// commit returns the VCS revision the binary was built from, "unknown" when
// the build had none (a checkout that is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
