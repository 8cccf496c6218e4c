// Command traceview analyses serving traces. Two modes:
//
// Distribution similarity (the paper's Figures 3 and 4 machinery):
// output-length similarity between time windows of a trace, either on the
// built-in synthetic traces or on the output_tokens column of a span CSV
// written by `fleetsim -spans`.
//
// Span report: a TTFT waterfall and shed audit over that same per-request
// span CSV (internal/obs): where the TTFT of served requests actually went
// (hold / queue / prefill / wire / outage — the stages partition each TTFT
// exactly), the worst offenders with per-request waterfalls, and who was
// refused where.
//
// Usage:
//
//	traceview -trace BurstGPT-API -n 40000 -window 1000
//	traceview -csv run.spans.csv -window 500 -matrix
//	traceview -spans run.spans.csv -top 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/stats"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns 2 on a usage error, 1 on a failed
// run, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceName = fs.String("trace", "BurstGPT-Conv", "built-in trace name (see -list)")
		csvPath   = fs.String("csv", "", "analyse output_tokens from this span CSV (from fleetsim -spans) instead")
		spansPath = fs.String("spans", "", "print a TTFT waterfall + shed audit over this span CSV (from fleetsim -spans)")
		top       = fs.Int("top", 10, "spans: number of worst-TTFT requests to show")
		n         = fs.Int("n", 40000, "number of synthetic requests")
		window    = fs.Int("window", 1000, "window size in requests")
		seed      = fs.Uint64("seed", 1, "random seed")
		matrix    = fs.Bool("matrix", false, "print the full similarity matrix")
		list      = fs.Bool("list", false, "list built-in traces")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var bad string
	switch {
	case *window <= 0:
		bad = fmt.Sprintf("-window %d: want a positive window size", *window)
	case *top < 0:
		bad = fmt.Sprintf("-top %d: want zero or more requests", *top)
	case *n < 0:
		bad = fmt.Sprintf("-n %d: want zero or more requests", *n)
	}
	if bad != "" {
		fmt.Fprintln(stderr, "traceview:", bad)
		fs.Usage()
		return 2
	}

	var err error
	switch {
	case *spansPath != "":
		err = spanReport(stdout, *spansPath, *top)
	case *list:
		for _, tr := range workload.Figure3Traces() {
			fmt.Fprintln(stdout, tr.Label)
		}
	default:
		var lengths []int
		var label string
		if lengths, label, err = outputLengths(*csvPath, *traceName, *n, *seed); err == nil {
			err = similarity(stdout, label, lengths, *window, *matrix)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "traceview:", err)
		return 1
	}
	return 0
}

// outputLengths returns the output lengths to analyse and their label: the
// output_tokens column of a span CSV, or n draws from a built-in trace.
func outputLengths(csvPath, traceName string, n int, seed uint64) ([]int, string, error) {
	if csvPath != "" {
		rows, err := obs.ReadSpanCSVFile(csvPath)
		if err != nil {
			return nil, "", err
		}
		lengths := make([]int, len(rows))
		for i, row := range rows {
			lengths[i] = row.Output
		}
		return lengths, csvPath, nil
	}
	for _, tr := range workload.Figure3Traces() {
		if tr.Label == traceName {
			return tr.Lengths(rng.New(seed), n), tr.Label, nil
		}
	}
	return nil, "", fmt.Errorf("unknown trace %q (use -list)", traceName)
}

// similarity prints the window-to-window output-length similarity of one
// trace: the adjacent-window and all-pairs means, and optionally the matrix.
func similarity(w io.Writer, label string, lengths []int, window int, matrix bool) error {
	if len(lengths)/window < 2 {
		return fmt.Errorf("trace too short (%d) for window %d", len(lengths), window)
	}
	m := workload.WindowSimilarityMatrix(lengths, window)
	fmt.Fprintf(w, "trace: %s, %d requests, %d windows of %d\n", label, len(lengths), len(m), window)
	fmt.Fprintf(w, "adjacent-window similarity (diagonal): %.3f\n", workload.DiagonalMean(m))
	fmt.Fprintf(w, "all-pairs similarity (global):         %.3f\n", workload.GlobalMean(m))
	if matrix {
		for i := range m {
			for j := range m[i] {
				fmt.Fprintf(w, "%.2f ", m[i][j])
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// stageNames orders the TTFT decomposition stages and the one-letter keys
// the per-request waterfalls use.
var stageNames = []struct {
	name string
	key  byte
	get  func(obs.SpanRow) float64
}{
	{"hold", 'H', func(s obs.SpanRow) float64 { return s.Hold }},
	{"queue", 'Q', func(s obs.SpanRow) float64 { return s.Queue }},
	{"prefill", 'P', func(s obs.SpanRow) float64 { return s.Prefill }},
	{"wire", 'W', func(s obs.SpanRow) float64 { return s.Wire }},
	{"outage", 'O', func(s obs.SpanRow) float64 { return s.Outage }},
}

// spanReport renders the TTFT waterfall and shed audit of one span CSV:
// per-stage mean/p50/p99 over every request whose first token became
// visible, the top worst-TTFT requests with their own waterfalls, and the
// refusals broken down by shed point and workload class.
func spanReport(w io.Writer, path string, top int) error {
	rows, err := obs.ReadSpanCSVFile(path)
	if err != nil {
		return err
	}
	outcomes := map[string]int{}
	var served []obs.SpanRow
	for _, s := range rows {
		outcomes[s.Outcome]++
		if s.TTFT >= 0 {
			served = append(served, s)
		}
	}
	var parts []string
	for _, k := range sortedKeys(outcomes) {
		parts = append(parts, fmt.Sprintf("%d %s", outcomes[k], k))
	}
	fmt.Fprintf(w, "spans: %s — %d requests (%s)\n", path, len(rows), strings.Join(parts, ", "))
	if len(served) == 0 {
		fmt.Fprintln(w, "no request saw a first token; nothing to decompose")
		return shedAudit(w, rows)
	}

	// The aggregate waterfall: where the mean TTFT went. The stage means
	// sum exactly to the mean TTFT (each span decomposes exactly), so the
	// share column is an honest partition, not an approximation.
	ttfts := make([]float64, len(served))
	for i, s := range served {
		ttfts[i] = s.TTFT
	}
	meanTTFT := stats.Mean(ttfts)
	fmt.Fprintf(w, "\nTTFT waterfall over %d served requests (mean %.3fs, p50 %.3fs, p99 %.3fs):\n",
		len(served), meanTTFT, stats.Percentile(ttfts, 0.5), stats.Percentile(ttfts, 0.99))
	fmt.Fprintf(w, "  %-8s %9s %9s %9s %7s\n", "stage", "mean", "p50", "p99", "share")
	for _, st := range stageNames {
		vals := make([]float64, len(served))
		for i, s := range served {
			vals[i] = st.get(s)
		}
		mean := stats.Mean(vals)
		share := 0.0
		if meanTTFT > 0 {
			share = mean / meanTTFT
		}
		fmt.Fprintf(w, "  %-8s %8.3fs %8.3fs %8.3fs %6.1f%% %s\n",
			st.name, mean, stats.Percentile(vals, 0.5), stats.Percentile(vals, 0.99),
			share*100, strings.Repeat("#", int(share*40+0.5)))
	}

	// Chunked prefill, when present: how many prompts landed in pieces and
	// how finely. The prefill stage above already contains the chunked time;
	// this line says how it was scheduled.
	chunked, chunks := 0, 0
	for _, s := range served {
		if s.Chunks > 0 {
			chunked++
			chunks += s.Chunks
		}
	}
	if chunked > 0 {
		fmt.Fprintf(w, "  chunked prefill: %d/%d served requests, %d chunks (%.1f per chunked prompt)\n",
			chunked, len(served), chunks, float64(chunks)/float64(chunked))
	}

	// The worst offenders, each with its own waterfall so the dominating
	// stage is visible per request, not just in aggregate.
	sort.Slice(served, func(i, j int) bool { return served[i].TTFT > served[j].TTFT })
	if top > len(served) {
		top = len(served)
	}
	if top > 0 {
		fmt.Fprintf(w, "\nworst %d TTFTs:\n", top)
	}
	for _, s := range served[:top] {
		fmt.Fprintf(w, "  #%-6d %-14s ttft %7.3fs  [%s]  pool %d/%d", s.ID, s.Class, s.TTFT, waterfall(s, 40), s.Pool, s.Replica)
		if s.Retries > 0 {
			fmt.Fprintf(w, "  retries %d", s.Retries)
		}
		if s.Chunks > 0 {
			fmt.Fprintf(w, "  chunks %d", s.Chunks)
		}
		if s.Held {
			fmt.Fprint(w, "  held")
		}
		fmt.Fprintln(w)
	}
	return shedAudit(w, rows)
}

// waterfall renders one request's TTFT as a fixed-width bar whose segments
// are proportional to the decomposition stages (H hold, Q queue, P prefill,
// W wire, O outage).
func waterfall(s obs.SpanRow, width int) string {
	if s.TTFT <= 0 {
		return strings.Repeat(".", width)
	}
	var b strings.Builder
	for _, st := range stageNames {
		n := int(st.get(s)/s.TTFT*float64(width) + 0.5)
		for i := 0; i < n && b.Len() < width; i++ {
			b.WriteByte(st.key)
		}
	}
	for b.Len() < width {
		b.WriteByte('.')
	}
	return b.String()
}

// shedAudit breaks refused requests down by shed point and workload class —
// the "who did we turn away, and how early" counterpart of the waterfall.
func shedAudit(w io.Writer, rows []obs.SpanRow) error {
	where := map[string]int{}
	class := map[string]int{}
	heldFirst := 0
	for _, s := range rows {
		if s.ShedWhere == "" {
			continue
		}
		where[s.ShedWhere]++
		class[s.Class]++
		if s.Held {
			heldFirst++
		}
	}
	if len(where) == 0 {
		fmt.Fprintln(w, "\nno requests were shed")
		return nil
	}
	total := 0
	for _, n := range where {
		total += n
	}
	fmt.Fprintf(w, "\nshed audit: %d refused (%d were held first)\n", total, heldFirst)
	for _, k := range sortedKeys(where) {
		fmt.Fprintf(w, "  at %-10s %6d\n", k, where[k])
	}
	for _, k := range sortedKeys(class) {
		fmt.Fprintf(w, "  class %-14s %6d\n", k, class[k])
	}
	return nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
