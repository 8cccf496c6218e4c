package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/all-0.05.golden")

// TestAllMatchesGolden pins the paper's tables and figures: every
// experiment at scale 0.05 prints exactly testdata/all-0.05.golden, so a
// change that moves a decision shows up as a table diff. Re-record it with
// `go test ./cmd/pfsim -run TestAllMatchesGolden -update` only for a change
// meant to move the numbers.
func TestAllMatchesGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "all", "-scale", "0.05"}, &out, &errOut); code != 0 {
		t.Fatalf("pfsim -exp all -scale 0.05: exit %d\n%s", code, errOut.String())
	}
	path := filepath.Join("testdata", "all-0.05.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	t.Fatalf("output differs from %s:\n%s", path, goldenDiff(out.String(), string(want), 40))
}

// goldenDiff lists the lines on which got and want differ, at most limit of
// them, each under the "==" section header above it, so a re-record's whole
// footprint shows in one run.
func goldenDiff(got, want string, limit int) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<no line>"
	}
	var b strings.Builder
	header, shown, n := "", "", 0
	for i := 0; i < max(len(g), len(w)); i++ {
		gi, wi := at(g, i), at(w, i)
		section := wi // the golden's sections, then got's past its end
		if i >= len(w) {
			section = gi
		}
		if strings.HasPrefix(section, "== ") {
			header = section
		}
		if gi == wi {
			continue
		}
		if n++; n > limit {
			continue
		}
		if header != shown {
			fmt.Fprintf(&b, "%s\n", header)
			shown = header
		}
		fmt.Fprintf(&b, "line %d\n   got %s\n  want %s\n", i+1, gi, wi)
	}
	if n > limit {
		fmt.Fprintf(&b, "... and %d more differing lines\n", n-limit)
	}
	return b.String()
}

func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "router"}, &out, &errOut); code != 2 {
		t.Fatalf("pfsim -exp router: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown experiment "router"`) {
		t.Errorf("stderr: %s", errOut.String())
	}
}
