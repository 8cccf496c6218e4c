package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// agreeMode runs every workload in two interleaved sets of n runs each, every
// run its own process with its own seed, and checks what the benchmark's
// acceptance checks: that each end-to-end metric's spread within a set — the
// distance between its quartiles as a share of its median — stays within the
// metric's bound (setup_s excepted), and that the second set's median is not
// worse than the first's by more than the bound. It returns the exit code.
func agreeMode(n int, seed uint64, seconds, scale float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// values[workload][set][metric] collects one value per run.
	values := map[string][2]map[string][]float64{}
	for _, w := range workloads {
		values[w.name] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				runSeed := seed + uint64(set*n+i)
				res, err := runChild(self, w.name, runSeed, seconds, scale)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.name, runSeed, err)
					return 1
				}
				if !res.Correct {
					fmt.Printf("%s seed %d: %d of %d operations failed\n", w.name, runSeed, res.Failed, res.Attempted)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %c run %d %s seed %d: %.0f req/s\n", 'A'+set, i+1, w.name, runSeed, res.Metrics["requests_per_s"].Value)
				for name, m := range res.Metrics {
					values[w.name][set][name] = append(values[w.name][set][name], m.Value)
				}
			}
		}
	}
	return report(n, values)
}

// runChild runs one untraced run in a process of its own — peak memory is a
// property of a process — and parses the result line it prints last.
func runChild(self, workload string, seed uint64, seconds, scale float64) (*result, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}

// report prints, per workload and metric, both sets' medians and spreads,
// their relative difference and the bound, and returns 1 when any is out.
func report(n int, values map[string][2]map[string][]float64) int {
	code := 0
	fmt.Printf("two interleaved sets of %d runs per workload, each run its own process and seed\n", n)
	fmt.Printf("%-14s %-27s %13s %13s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[w.name][0][d.name], values[w.name][1][d.name]
			ma, mb := pct(a, 0.5), pct(b, 0.5)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := ""
			if worse > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				verdict = "  OUT OF BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-27s %13.6g %13.6g %8.4f %8.4f %+8.4f %6.2f%s\n",
				w.name, d.name, ma, mb, sa, sb, worse, d.bound, verdict)
		}
	}
	if code == 0 {
		fmt.Println("every metric agrees within its bound")
	}
	return code
}

// spread is the distance between the first and third quartiles as a share
// of the median, the quartiles taken as Python's statistics.quantiles(vs,
// n=4) takes them.
func spread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / pct(s, 0.5)
}
