package main

import (
	"bytes"
	"flag"
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
	g, w := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("output diverges from %s at line %d:\n got %s\nwant %s", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("output has %d lines, %s %d", len(g), path, len(w))
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
