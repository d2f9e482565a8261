package simlint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyRepoPackage copies a real repo package's non-test sources into a
// scratch module, rewriting the repro module path to the scratch one,
// so mutation tests run against production snapshot code without
// touching the tree.
func copyRepoPackage(t *testing.T, srcDir, dstDir, modPath string) {
	t.Helper()
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		data = bytes.ReplaceAll(data, []byte(`"repro/`), []byte(`"`+modPath+`/`))
		if err := os.WriteFile(filepath.Join(dstDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatecovMutation is the acceptance gate for the snapshot-coverage
// rule on production code: a copy of internal/stats (plus its only
// dependency, internal/snapshot) lints clean, and deleting one field's
// walk from Running.State makes statecov report exactly that field.
func TestStatecovMutation(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"),
		[]byte("module mutant\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	copyRepoPackage(t, filepath.Join("..", "snapshot"), filepath.Join(root, "internal", "snapshot"), "mutant")
	copyRepoPackage(t, filepath.Join("..", "stats"), filepath.Join(root, "internal", "stats"), "mutant")

	run := func() []Finding {
		t.Helper()
		findings, err := Run(Config{Root: root})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return findings
	}

	if findings := run(); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("unmutated copy must lint clean, got: %s", f)
		}
		t.FailNow()
	}

	// Delete the m2 walk from Running.State: the snapshot now silently
	// loses the variance accumulator.
	snapPath := filepath.Join(root, "internal", "stats", "snapshot.go")
	src, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	mutated := bytes.Replace(src, []byte("c.F64(&r.m2)\n"), nil, 1)
	if bytes.Equal(mutated, src) {
		t.Fatal("mutation target line c.F64(&r.m2) not found in stats/snapshot.go copy")
	}
	if err := os.WriteFile(snapPath, mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	findings := run()
	found := false
	for _, f := range findings {
		if f.Rule != RuleStatecov {
			t.Errorf("unexpected non-statecov finding after mutation: %s", f)
			continue
		}
		if strings.Contains(f.Msg, "Running.m2") {
			found = true
		}
	}
	if !found {
		var got []string
		for _, f := range findings {
			got = append(got, f.String())
		}
		t.Fatalf("statecov missed the deleted m2 walk; findings:\n  %s",
			strings.Join(got, "\n  "))
	}
}
