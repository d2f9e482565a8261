package simlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runFixture analyzes the fixture module with "det" under the
// determinism contract and returns findings as "file:line:rule"
// triples (columns elided so gofmt-stable edits don't break tests).
func runFixture(t *testing.T) []string {
	t.Helper()
	findings, err := Run(Config{
		Root:          filepath.Join("testdata", "mod"),
		Deterministic: []string{"det"},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var got []string
	for _, f := range findings {
		rel := filepath.ToSlash(f.Pos.Filename)
		if i := strings.Index(rel, "testdata/mod/"); i >= 0 {
			rel = rel[i+len("testdata/mod/"):]
		}
		got = append(got, fmt.Sprintf("%s:%d:%s", rel, f.Pos.Line, f.Rule))
	}
	return got
}

// TestFixtureFindings pins down, per rule, both the firing case and
// (by exact-set comparison) the silence of every allowed/clean case in
// the fixture tree.
func TestFixtureFindings(t *testing.T) {
	want := []string{
		// wallclock: math/rand import and time.Now call fire; the
		// annotated call in host.go and time import itself stay silent.
		"det/det.go:8:wallclock",
		"det/det.go:17:wallclock",
		"host/host.go:10:wallclock", // renamed import still caught
		// maprange: the bare loop fires; the annotated sort-the-keys
		// loop and the slice loop stay silent.
		"det/det.go:24:maprange",
		// concurrency: go/send/recv/close/select all fire; the
		// annotated sends/receives and the allow-file file stay silent.
		"det/det.go:47:concurrency", // go stmt
		"det/det.go:47:concurrency", // send inside the spawned func
		"det/det.go:48:concurrency", // receive
		"det/det.go:49:concurrency", // close
		"det/det.go:50:concurrency", // select
		// alloc: make and bare append inside a hot-path method fire; the
		// annotated scratch refill and the cold helper stay silent.
		"det/det.go:68:alloc",
		"det/det.go:69:alloc",
		// assertarg: calls in the arguments of an unguarded sim.Assert
		// fire (nested ones once each), as does the else branch of a
		// guard; builtins, conversions, both guard shapes and the
		// annotated site stay silent.
		"det/assertarg.go:16:assertarg", // b.Name()
		"det/assertarg.go:17:assertarg", // wrap(...)
		"det/assertarg.go:17:assertarg", // b.Name() inside it
		"det/assertarg.go:34:assertarg", // else branch of a guard
		// output: global-stream prints in an internal/ package fire,
		// including through a renamed log import; the annotated print,
		// the writer-explicit Fprintf, and the shadowing local value
		// stay silent.
		"internal/report/report.go:13:output",
		"internal/report/report.go:14:output",
		"internal/report/report.go:15:output",
		// malformed directives are findings themselves.
		"det/directives.go:5:directive",
		"det/directives.go:8:directive",
		"det/directives.go:11:directive",
		"det/directives.go:14:directive",
		// statecov: fields the state description never reaches fire at
		// their declarations — touched only by a method State does not
		// call, touched only on another value of the type, touched
		// nowhere — and so does a field of a nested type that only an
		// unexported method describes; the fully covered type (via
		// cross-file helpers), the derived-annotated cache, and every
		// type without a codec method stay silent.
		"cov/cov.go:51:statecov", // dropped: only in a method State never calls
		"cov/cov.go:52:statecov", // ghost: only on a local of the same type
		"cov/cov.go:53:statecov", // lost: nowhere
		"cov/cov.go:81:statecov", // inner.forgot: nested, unexported state method
		// a generic type's sibling helpers are followed: only the field
		// no helper touches fires.
		"cov/cov.go:92:statecov", // missed
		// taint: a direct env read and every transitive clock path fire
		// (one, two, and local-relay hops); the allow-taint edge and the
		// path through the sanctioned sink stay silent.
		"det/taint.go:15:taint", // os.Getenv directly in det
		"det/taint.go:18:taint", // host.Stamp → time.Now
		"det/taint.go:21:taint", // host.Elapsed → host.Stamp → time.Now
		"det/taint.go:25:taint", // viaLocal's own edge to host.Stamp
		"det/taint.go:28:taint", // det.viaLocal → host.Stamp → time.Now
		// the taint fixtures' unannotated host-side sink is still a
		// wallclock finding (wallclock applies everywhere).
		"host/clock.go:14:wallclock",
	}
	got := runFixture(t)
	sort.Strings(want)
	g := append([]string(nil), got...)
	sort.Strings(g)
	if strings.Join(g, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings mismatch\ngot:\n  %s\nwant:\n  %s",
			strings.Join(g, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestHostPackageScope verifies the contract split: host-side packages
// get no maprange/concurrency findings at all.
func TestHostPackageScope(t *testing.T) {
	for _, f := range runFixture(t) {
		if strings.HasPrefix(f, "host/") &&
			(strings.HasSuffix(f, ":maprange") || strings.HasSuffix(f, ":concurrency")) {
			t.Errorf("host-side package must not be under the full contract: %s", f)
		}
	}
}

// TestDefaultDeterministicScope: with the fixture det package NOT
// listed, the deterministic-only rules (maprange, concurrency, taint)
// all go silent; statecov still applies module-wide.
func TestDefaultDeterministicScope(t *testing.T) {
	findings, err := Run(Config{Root: filepath.Join("testdata", "mod")})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sawStatecov := false
	for _, f := range findings {
		switch f.Rule {
		case RuleMapRange, RuleConcurrency, RuleTaint:
			t.Errorf("rule %s fired outside the deterministic set: %s", f.Rule, f)
		case RuleStatecov:
			sawStatecov = true
		}
	}
	if !sawStatecov {
		t.Error("statecov must apply module-wide, not only to deterministic packages")
	}
}

// TestRunErrorsOutsideModule: a directory without go.mod is a load
// error, not an empty result.
func TestRunErrorsOutsideModule(t *testing.T) {
	if _, err := Run(Config{Root: "testdata"}); err == nil {
		t.Fatal("expected error for a root without go.mod")
	}
}

// TestRepoIsDeterministicSuperset sanity-checks the production config:
// every entry resolves under the repro module and includes the sim
// kernel itself.
func TestRepoIsDeterministicSuperset(t *testing.T) {
	det := DefaultDeterministic()
	found := false
	for _, d := range det {
		if d == "internal/sim" {
			found = true
		}
		if strings.HasPrefix(d, "/") || strings.Contains(d, "repro/") {
			t.Errorf("entries must be module-relative, got %q", d)
		}
	}
	if !found {
		t.Error("internal/sim must be under the determinism contract")
	}
}

// classifyFindings runs the fixture with an explicit classification
// and returns only the classify findings.
func classifyFindings(t *testing.T, det, host []string) []string {
	t.Helper()
	findings, err := Run(Config{
		Root:          filepath.Join("testdata", "mod"),
		Deterministic: det,
		HostSide:      host,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var got []string
	for _, f := range findings {
		if f.Rule != RuleClassify {
			continue
		}
		rel := filepath.ToSlash(f.Pos.Filename)
		if i := strings.Index(rel, "testdata/mod/"); i >= 0 {
			rel = rel[i+len("testdata/mod/"):]
		}
		got = append(got, fmt.Sprintf("%s:%d:%s", rel, f.Pos.Line, f.Rule))
	}
	return got
}

// TestClassify pins the package-classification rule: with a host-side
// list configured, an internal/ package claimed by neither list (or by
// both) fires at its package clause; a fully classified module, and a
// run without a host-side list (the opt-out), stay silent.
func TestClassify(t *testing.T) {
	if got := classifyFindings(t, []string{"det"}, []string{"internal/report"}); len(got) != 0 {
		t.Errorf("classified module must be silent, got %v", got)
	}
	if got := classifyFindings(t, []string{"det"}, nil); len(got) != 0 {
		t.Errorf("nil host-side list must disable the rule, got %v", got)
	}
	want := []string{"internal/report/report.go:3:classify"}
	if got := classifyFindings(t, []string{"det"}, []string{}); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("unclassified package: got %v want %v", got, want)
	}
	both := classifyFindings(t, []string{"det", "internal/report"}, []string{"internal/report"})
	if strings.Join(both, ",") != strings.Join(want, ",") {
		t.Errorf("doubly classified package: got %v want %v", both, want)
	}
}

// TestDefaultListsDisjoint guards the shipped configuration itself:
// the default deterministic and host-side lists must not overlap.
func TestDefaultListsDisjoint(t *testing.T) {
	host := map[string]bool{}
	for _, p := range DefaultHostSide() {
		host[p] = true
	}
	for _, p := range DefaultDeterministic() {
		if host[p] {
			t.Errorf("package %s is in both default lists", p)
		}
	}
}

// TestDefaultListsNameLivePackages: every entry of the two default
// lists names a directory of this module that holds Go files, so a
// deleted or renamed package cannot linger in either list (a stale
// entry matches nothing and the lint stays silent about it).
func TestDefaultListsNameLivePackages(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, p := range append(DefaultDeterministic(), DefaultHostSide()...) {
		files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(p), "*.go"))
		if err != nil || len(files) == 0 {
			t.Errorf("default list entry %s names no directory of Go files", p)
		}
	}
}

func fakeFindings() []Finding {
	return []Finding{
		{Pos: token.Position{Filename: "a/x.go", Line: 3, Column: 2}, Rule: RuleWallclock, Msg: "m1"},
		{Pos: token.Position{Filename: "a/x.go", Line: 9, Column: 4}, Rule: RuleWallclock, Msg: "m1"},
		{Pos: token.Position{Filename: "b/y.go", Line: 1, Column: 1}, Rule: RuleTaint, Msg: "m2"},
	}
}

// TestWriteJSON pins the machine-readable spelling: an array of
// {file,line,col,rule,msg} objects.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, fakeFindings()); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 3 {
		t.Fatalf("got %d entries, want 3", len(decoded))
	}
	first := decoded[0]
	if first["file"] != "a/x.go" || first["line"] != float64(3) ||
		first["col"] != float64(2) || first["rule"] != "wallclock" || first["msg"] != "m1" {
		t.Errorf("unexpected first entry: %v", first)
	}

	var empty bytes.Buffer
	if err := WriteJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(empty.String()) != "[]" {
		t.Errorf("no findings must encode as an empty array, got %q", empty.String())
	}
}
