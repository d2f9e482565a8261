// Package simlint is the determinism lint for this module: a
// stdlib-only static analyzer (go/parser + go/ast + go/types) that
// enforces the simulation-purity rules every quantitative claim in the
// reproduction depends on. The co-simulation experiments compare the
// same workload under different network abstractions, so the simulator
// must be bit-for-bit repeatable and its state must survive a
// checkpoint round trip exactly; wall-clock leakage, unseeded
// randomness, Go map iteration order, ad-hoc concurrency, and
// forgotten snapshot fields are the ways those contracts silently
// break.
//
// The analysis runs in two phases. Phase one parses and type-checks
// every package in the module exactly once (module-local imports are
// resolved from source, the standard library through the source
// importer, so the analyzer works offline with nothing but the
// toolchain) and collects every //simlint: directive. Phase two runs
// the rules over that shared typed view: the six local rules walk one
// file at a time, while statecov and taint consume whole-module
// indexes (the method table and the static call graph) built from the
// same type information. Rules never re-parse or re-type-check, which
// is what keeps a nine-rule whole-module pass as cheap as the old
// five-rule syntactic one.
//
// Nine rules are enforced:
//
//   - wallclock (whole module): no calls to time.Now, time.Since, and
//     the other wall-clock/timer entry points, and no import of
//     math/rand (seeded sim.NewRNG streams only). Host-time
//     measurement around the simulator — speedup experiments, CLI
//     progress — is legitimate and is annotated.
//
//   - output (internal/ packages): no fmt.Print/Printf/Println and no
//     default-logger log.Print*/Fatal*/Panic* calls. Runtime output
//     from simulator internals goes through internal/obs (or an
//     explicit io.Writer, which stays legal); ad-hoc prints are how
//     debugging leftovers and nondeterministic interleaved output
//     sneak into experiment logs.
//
//   - maprange (deterministic packages): no `for range` over a
//     map-typed value. Map iteration order varies run to run; either
//     collect and sort the keys, or annotate the loop with a reason
//     why order cannot matter.
//
//   - concurrency (deterministic packages): no goroutine spawns,
//     channel operations, or selects. Parallelism is introduced
//     deliberately, behind an engine whose determinism is tested, not
//     ambiently.
//
//   - alloc (deterministic packages): no make/append inside the
//     per-cycle hot paths (methods named phase*, Step, Tick,
//     stepRouter, the per-flit helpers pushFlit, popFlit, saNominate,
//     tryInject, selectNext and bestVC, the shard pass stepSharded and
//     shardStep with the per-router wake scheduling rearm and
//     wakeOut, and the full-system gated
//     sweep's tick, sleepTile, wakeTile and checkSleepers). The
//     activity-gated
//     simulator promises a zero-alloc steady state
//     (BenchmarkStepIdleMesh under -benchmem);
//     a make in a phase method silently re-allocates every cycle, and
//     an append is legal only when it refills a preallocated scratch
//     buffer — which is exactly the argument the annotation records.
//
//   - assertarg (whole module): no function or method call inside an
//     argument of sim.Assert unless an `if sim.Checking` guard (or a
//     function that opens with `if !sim.Checking { return }`) encloses
//     the assertion. The production Assert is an empty function, but
//     Go still evaluates its arguments: a Name() that formats a string
//     is then paid per packet in every build. Builtins and conversions
//     are free and stay legal.
//
//   - statecov (whole module): a type describes its state to the
//     checkpoint codec in methods whose first parameter is a
//     *snapshot.Codec (exported or not, whatever their name), and every
//     struct field of such a type must be referenced in that
//     description — directly, through sibling helper methods, or
//     through package-level helpers the receiver is passed to — or
//     carry a //simlint:derived <reason> annotation on its declaration.
//     This catches the "added a field, forgot to walk it" bug class at
//     compile time instead of waiting for a round-trip test to happen
//     to exercise the field, for every type that carries state, nested
//     records included.
//
//   - taint (deterministic packages): no function may *transitively*
//     reach time.Now/time.Since (and the other wall-clock entry
//     points), math/rand, or os.Getenv through helper layers — the
//     wallclock rule only sees direct calls. The rule builds a static
//     call graph over the whole module and reports the call edge that
//     starts each offending chain. A //simlint:allow wallclock
//     annotation at the sink declares the host-time read harmless and
//     sanctions its transitive callers; //simlint:allow taint on a
//     call edge sanctions that edge alone.
//
//   - classify (whole module, when a host-side list is configured):
//     every package under internal/ must be claimed by exactly one of
//     the deterministic and host-side lists. A package in neither (or
//     both) is a finding at its package clause. The lists live in
//     DefaultDeterministic/DefaultHostSide and are documented in
//     DESIGN.md, so a new package's determinism scope is a one-line,
//     reviewed decision instead of an implicit consequence of its
//     directory.
//
// A finding is suppressed by a directive comment on the same line or
// the line directly above:
//
//	//simlint:allow <rule> <reason>
//
// or for a whole file (used by the phase-parallel engine, whose entire
// job is deliberate concurrency):
//
//	//simlint:allow-file <rule> <reason>
//
// Snapshot-exempt fields use the dedicated form on (or above) the
// field declaration, which doubles as documentation of why the field
// is recomputed rather than serialized:
//
//	masks []vcMask //simlint:derived rebuilt by rederive from vcState and vcCount
//
// The reason is mandatory; a directive without one (or naming an
// unknown rule) is itself reported. Test files (_test.go) are not
// linted: tests may time out, measure, and range over maps to assert.
package simlint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Rule names.
const (
	RuleWallclock   = "wallclock"
	RuleOutput      = "output"
	RuleMapRange    = "maprange"
	RuleConcurrency = "concurrency"
	RuleAlloc       = "alloc"
	RuleAssertArg   = "assertarg"
	RuleStatecov    = "statecov"
	RuleTaint       = "taint"
	// RuleClassify reports internal/ packages that appear in neither
	// (or both of) the deterministic and host-side lists. Determinism
	// scope is an explicit, reviewed decision made once per package,
	// not an accident of directory layout.
	RuleClassify = "classify"
	// RuleDirective reports malformed //simlint: directives. It cannot
	// be suppressed.
	RuleDirective = "directive"
)

// knownRules is the registry of suppressible rules. The directive
// parser derives its error message from this map, so the message can
// never drift from the actual rule set.
var knownRules = map[string]bool{
	RuleWallclock:   true,
	RuleOutput:      true,
	RuleMapRange:    true,
	RuleConcurrency: true,
	RuleAlloc:       true,
	RuleAssertArg:   true,
	RuleStatecov:    true,
	RuleTaint:       true,
	RuleClassify:    true,
}

// knownRuleList returns the suppressible rule names, sorted, for
// directive diagnostics.
func knownRuleList() string {
	names := make([]string, 0, len(knownRules))
	for r := range knownRules {
		names = append(names, r)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Finding is one rule violation at a source position. Filenames are
// module-root-relative (slash-separated), so findings are stable
// across checkouts.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// jsonFinding is the stable machine-readable spelling of one finding.
// File is module-root-relative and slash-separated.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// WriteJSON writes findings as an indented JSON array (stable field
// order, trailing newline), the format consumed by CI and diffable in
// review.
func WriteJSON(w io.Writer, findings []Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: f.Pos.Filename,
			Line: f.Pos.Line,
			Col:  f.Pos.Column,
			Rule: f.Rule,
			Msg:  f.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Config selects what to analyze.
type Config struct {
	// Root is the module root directory (the one containing go.mod).
	Root string
	// Deterministic lists module-relative import-path prefixes (e.g.
	// "internal/noc") whose packages are under the full determinism
	// contract (maprange + concurrency + taint in addition to
	// wallclock).
	Deterministic []string
	// HostSide lists module-relative import-path prefixes of internal/
	// packages that are deliberately host-side harness code (servers,
	// file I/O, analysis tooling): wallclock and output still apply,
	// the deterministic-only rules do not. When HostSide is non-nil,
	// every package under internal/ must fall under exactly one of the
	// two lists; an unclassified (or doubly classified) package is a
	// `classify` finding. This replaces the old implicit "everything
	// under internal/ is simulated" assumption: a new package is
	// classified once, here, instead of sprinkling //simlint:allow over
	// every handler it grows.
	HostSide []string
}

// DefaultDeterministic is the set of packages under the determinism
// contract in this module: everything that executes inside the
// simulated target. internal/expt, internal/stats, cmd/ and examples/
// are host-side harness code: wallclock still applies there, but maps
// and goroutines used for reporting do not perturb simulated state.
func DefaultDeterministic() []string {
	return []string{
		"internal/sim",
		"internal/noc",
		"internal/fullsys",
		"internal/core",
		"internal/dram",
		"internal/abstractnet",
		"internal/traffic",
		"internal/workload",
		"internal/calib",
		"internal/obs",
		"internal/gpu",
	}
}

// DefaultHostSide is the explicit complement: the internal/ packages
// that run on the host around the simulator rather than inside the
// simulated target. The two lists together must cover every internal/
// package (the classify rule enforces this), so determinism scope is
// decided once per package, in code review, when the package is born.
// See DESIGN.md "Determinism contract".
func DefaultHostSide() []string {
	return []string{
		"internal/ckpt",     // checkpoint file I/O and resumable running
		"internal/cosimd",   // the multi-session co-simulation server and its observability
		"internal/expt",     // experiment harness (memoized host-side sweeps)
		"internal/simlint",  // this analyzer
		"internal/snapshot", // envelope codec: deterministic bytes, host-side I/O helpers
		"internal/stats",    // reporting containers; snapshotted state is covered by statecov
	}
}

// Run analyzes the module rooted at cfg.Root and returns all findings
// sorted by position. It returns an error only when the module itself
// cannot be loaded; findings (including directive errors) are data,
// not errors.
func Run(cfg Config) ([]Finding, error) {
	m, err := load(cfg.Root)
	if err != nil {
		return nil, err
	}

	// Malformed directives surfaced during phase one.
	findings := append([]Finding(nil), m.dirs.findings...)

	// Classification: with an explicit host-side list configured, every
	// internal/ package must be claimed by exactly one of the two
	// lists.
	if cfg.HostSide != nil {
		findings = append(findings, classify(m, &cfg)...)
	}

	// Local (per-file) rules.
	for _, path := range m.sorted {
		p := m.pkgs[path]
		det := isDeterministic(m.path, path, cfg.Deterministic)
		inInternal := strings.HasPrefix(path, m.path+"/internal/")
		for _, f := range p.files {
			findings = append(findings, lintFile(m, p, f, det, inInternal)...)
		}
	}

	// Whole-module rules over the shared typed view.
	findings = append(findings, statecov(m)...)
	findings = append(findings, taint(m, &cfg)...)

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Rule < findings[j].Rule
	})
	return findings, nil
}

// isDeterministic reports whether import path pkg falls under one of
// the module-relative prefixes.
func isDeterministic(modPath, pkg string, prefixes []string) bool {
	for _, pre := range prefixes {
		full := modPath + "/" + pre
		if pkg == full || strings.HasPrefix(pkg, full+"/") {
			return true
		}
	}
	return false
}

// classify checks that every internal/ package is claimed by exactly
// one of the deterministic and host-side lists. Findings anchor at the
// package clause of the package's first (lexically sorted) file.
func classify(m *Module, cfg *Config) []Finding {
	var out []Finding
	for _, path := range m.sorted {
		if !strings.HasPrefix(path, m.path+"/internal/") {
			continue
		}
		det := isDeterministic(m.path, path, cfg.Deterministic)
		host := isDeterministic(m.path, path, cfg.HostSide)
		if det == host {
			p := m.pkgs[path]
			if len(p.files) == 0 {
				continue
			}
			rel := strings.TrimPrefix(path, m.path+"/")
			var msg string
			if det {
				msg = fmt.Sprintf("package %s is in both the deterministic and host-side lists; remove it from one", rel)
			} else {
				msg = fmt.Sprintf("package %s is neither deterministic nor host-side; add it to DefaultDeterministic or DefaultHostSide (see DESIGN.md \"Determinism contract\")", rel)
			}
			m.report(&out, p.files[0].Name, RuleClassify, msg)
		}
	}
	return out
}
