// Package bench contains the experiment harness: one runner per table and
// figure of the paper's evaluation (§5), each regenerating the corresponding
// rows/series from scratch — workload synthesis, engine runs, metric
// aggregation, and formatted table output.
//
// Every runner accepts Options with a Scale knob: 1.0 reproduces the paper's
// experiment sizes; the root bench_test.go and the package tests use small
// scales so the suite stays fast while preserving the qualitative shapes
// (who wins, by roughly what factor, where crossovers fall).
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives all randomness; equal seeds give identical results.
	Seed uint64
	// Scale multiplies request counts / run durations. 0 selects 1.0.
	Scale float64
	// Out receives the formatted tables. nil discards them.
	Out io.Writer
}

func (o Options) normalized() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Scale < 0.005 {
		o.Scale = 0.005
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// scaled returns max(min, round(base*scale)).
func scaled(base int, scale float64, min int) int {
	n := int(float64(base)*scale + 0.5)
	if n < min {
		n = min
	}
	return n
}

// Table is a minimal fixed-width text table for experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row of cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func pct(f float64) string   { return fmt.Sprintf("%.2f%%", f*100) }
func f2(f float64) string    { return fmt.Sprintf("%.2f", f) }
func itoa(i int) string      { return fmt.Sprintf("%d", i) }
func f0tok(f float64) string { return fmt.Sprintf("%.0f", f) }
