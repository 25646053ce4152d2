package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunOnlySubset renders two sections on a tiny budget: both tables'
// captions appear, in registry order, and nothing else is run.
func TestRunOnlySubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-runs", "200", "-lstep", "15", "-only", "figure2, table4"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	doc := stdout.String()
	fig := strings.Index(doc, "**figure2** — Avg detection time (#hops/X) varying L and b")
	tab := strings.Index(doc, "**table4** — Software pipeline throughput per configuration")
	if fig < 0 || tab < 0 || tab < fig {
		t.Fatalf("figure2 at %d, table4 at %d in:\n%s", fig, tab, doc)
	}
	if strings.Count(doc, "**") != 4 {
		t.Fatalf("want exactly two sections:\n%s", doc)
	}
	if !strings.Contains(stderr.String(), "figure2 done in") || !strings.Contains(stderr.String(), "table4 done in") {
		t.Fatalf("progress lines missing: %s", stderr.String())
	}
}

// TestRunRejectsUnknownID: a misspelt -only ID is a usage error naming
// the valid IDs, and no document is written.
func TestRunRejectsUnknownID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-runs", "200", "-only", "figure2,figur2"}, &stdout, &stderr)
	if !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want a usage error", err)
	}
	for _, id := range []string{`"figur2"`, "figure2", "figureaesop", "table4", "appendixA", "ablations", "collateral", "table5"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("message %q does not name %s", err, id)
		}
	}
	if stdout.Len() != 0 {
		t.Fatalf("wrote a document: %q", stdout.String())
	}
	if err := run([]string{"-bogus"}, &stdout, &stderr); !errors.Is(err, errUsage) {
		t.Fatalf("unknown flag: err = %v", err)
	}
}

// TestRunWritesFile: -o puts the document in the file, not on stdout.
func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.md")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-only", "appendixA", "-o", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# Unroller reproduction — experiment results") ||
		!strings.Contains(string(data), "**appendixA**") {
		t.Fatalf("file content:\n%s", data)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "wrote "+path) {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
