// Command pfsim regenerates the paper's tables and figures, and nothing
// else: experiments beyond the paper are cmd/fleetsim scenarios.
//
// Usage:
//
//	pfsim -exp table1            # one experiment
//	pfsim -exp all -scale 0.25   # everything, quarter scale
//	pfsim -exp fig7 -models Llama2-7B -datasets ShareGPT-o1
//
// Experiments: table1, table2, fig1, fig3, fig4, fig5, fig6, fig7, fig8,
// fig9, ablation, predict, all. Scale 1.0 reproduces the paper's experiment
// sizes; smaller scales preserve the qualitative shapes at a fraction of the
// runtime. testdata/all-0.05.golden is what `-exp all -scale 0.05` prints.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/lightllm-go/lightllm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns 2 on a usage error, 1 on a failed
// run, 0 otherwise. Tables go to stdout (or -o), progress to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pfsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: table1|table2|fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ablation|predict|all")
		scale    = fs.Float64("scale", 1.0, "experiment scale (1.0 = paper size)")
		seed     = fs.Uint64("seed", 1, "random seed")
		outPath  = fs.String("o", "", "write tables to this file instead of stdout")
		models   = fs.String("models", "", "comma-separated model-name prefixes (fig7/fig9)")
		datasets = fs.String("datasets", "", "comma-separated dataset prefixes (fig7)")
		hardware = fs.String("hardware", "", "comma-separated hardware prefixes (fig9)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "pfsim:", err)
			return 1
		}
		defer f.Close()
		out = f
	}
	opts := lightllm.BenchOptions{Seed: *seed, Scale: *scale, Out: out}

	runners := map[string]func(){
		"table1":   func() { lightllm.RunTable1(opts) },
		"table2":   func() { lightllm.RunTable2(opts) },
		"fig1":     func() { lightllm.RunFigure1(opts) },
		"fig3":     func() { lightllm.RunFigure3(opts) },
		"fig4":     func() { lightllm.RunFigure4(opts) },
		"fig5":     func() { lightllm.RunFigure5(opts) },
		"fig6":     func() { lightllm.RunFigure6(opts) },
		"fig7":     func() { lightllm.RunFigure7(opts, split(*models), split(*datasets)) },
		"fig8":     func() { lightllm.RunFigure8(opts) },
		"fig9":     func() { lightllm.RunFigure9(opts, split(*models), split(*hardware)) },
		"ablation": func() { lightllm.RunAblation(opts) },
		"predict":  func() { lightllm.RunPredictor(opts) },
	}
	order := []string{"fig1", "fig3", "fig4", "fig5", "fig6", "predict", "table1", "fig7", "fig8", "fig9", "table2", "ablation"}

	var todo []string
	for _, s := range strings.Split(strings.ToLower(*exp), ",") {
		s = strings.TrimSpace(s)
		if s == "all" {
			todo = order
			break
		}
		if _, ok := runners[s]; !ok {
			fmt.Fprintf(stderr, "pfsim: unknown experiment %q\n", s)
			return 2
		}
		todo = append(todo, s)
	}

	for _, name := range todo {
		start := time.Now()
		fmt.Fprintf(stderr, "pfsim: running %s (scale %.3g)...\n", name, *scale)
		runners[name]()
		fmt.Fprintf(stderr, "pfsim: %s done in %s\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func split(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
