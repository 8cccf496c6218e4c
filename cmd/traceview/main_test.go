package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const header = "id,class,arrival,deadline,outcome,shed_where,first_token,finish,ttft,hold,queue,prefill,wire,outage,pool,replica,flavor,held,migrations,retries,evictions,chunks,input_tokens,output_tokens,tpot,mtpot\n"

// spanCSV writes a span CSV of n served requests whose output lengths cycle
// through outputs, and returns its path.
func spanCSV(t *testing.T, n int, outputs ...string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(header)
	for i := 0; i < n; i++ {
		out := outputs[i%len(outputs)]
		b.WriteString(strings.Join([]string{
			strconv.Itoa(i + 1), "chat", "0", "8", "completed", "", "1", "2", "1",
			"0", "0.25", "0.75", "0", "0", "0", "0", "a100",
			"0", "0", "0", "0", "0", "100", out, "0.01", "0.02",
		}, ","))
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "spans.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// traceview runs the command in-process and fails the test on an exit code
// other than want.
func traceview(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != want {
		t.Fatalf("traceview %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, want, out.String(), errOut.String())
	}
	return out.String(), errOut.String()
}

// TestBadInputIsAnErrorNotAPanic: flags and files from outside the program
// get an error and an exit code, never a panic.
func TestBadInputIsAnErrorNotAPanic(t *testing.T) {
	spans := spanCSV(t, 4, "10", "20")
	negative := spanCSV(t, 4, "10", "-5")
	for _, c := range []struct {
		name string
		args []string
		want int
		says string
	}{
		{"zero window", []string{"-window", "0"}, 2, "-window 0"},
		{"negative window", []string{"-csv", spans, "-window", "-3"}, 2, "-window -3"},
		{"negative top", []string{"-spans", spans, "-top", "-1"}, 2, "-top -1"},
		{"negative request count", []string{"-n", "-1"}, 2, "-n -1"},
		{"negative output_tokens", []string{"-csv", negative, "-window", "1"}, 1, "negative output_tokens -5"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, stderr := traceview(t, c.want, c.args...)
			if !strings.Contains(stderr, c.says) {
				t.Errorf("stderr does not say %q:\n%s", c.says, stderr)
			}
		})
	}
}

// TestReadsTheSpanCSV: both modes read the one per-request file fleetsim
// writes.
func TestReadsTheSpanCSV(t *testing.T) {
	spans := spanCSV(t, 4, "10", "20")
	out, _ := traceview(t, 0, "-csv", spans, "-window", "2")
	if !strings.Contains(out, "4 requests, 2 windows of 2") || !strings.Contains(out, "(diagonal): 1.000") {
		t.Errorf("similarity report:\n%s", out)
	}
	out, _ = traceview(t, 0, "-spans", spans, "-top", "0")
	if !strings.Contains(out, "4 requests (4 completed)") || !strings.Contains(out, "TTFT waterfall over 4 served requests") {
		t.Errorf("span report:\n%s", out)
	}
}
