package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro"
	"repro/internal/workload"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json and
// the tables in this package identical, and inside the contract's
// limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -spec`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}

	spec := benchmarkSpec()
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced:
// every named metric is emitted, nothing fails (which includes equal
// fingerprints across repetitions and between the traced and the
// untraced run), and the per-layer shares add up to the run wall.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			h := newHarness(wl, tinySizes, 7, 0.2, traced, t.TempDir())
			h.hostSlowness()
			wl.run(h)
			rec := h.finish()
			if err := h.save(rec); err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", wl.Name, traced, rec.Attempted, rec.Failed, rec.Failures)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(rec.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", wl.Name, traced, len(rec.Metrics), len(specs))
			}
			for _, m := range specs {
				mv, ok := rec.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, m.Name)
					continue
				}
				if !traced && (mv.N == 0 || mv.Value == 0 || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0)) {
					t.Errorf("%s: end-to-end metric %s = %v from %d samples; must be a nonzero number", wl.Name, m.Name, mv.Value, mv.N)
				}
			}
			if traced && wl.Name != "serve_churn" {
				if sum := rec.Metrics["trace.share_sum"].Value; math.Abs(sum-1) > 0.05 {
					t.Errorf("%s: per-layer shares sum to %.3f of the run wall", wl.Name, sum)
				}
			}
			if len(rec.Fingerprints) == 0 {
				t.Errorf("%s traced=%v: no fingerprint recorded", wl.Name, traced)
			}
			var out bytes.Buffer
			rec.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Errorf("%s traced=%v: last line is not the contract object: %v", wl.Name, traced, err)
			} else if !line.Correct || line.Attempted != rec.Attempted || len(line.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: contract line %+v disagrees with the record", wl.Name, traced, line)
			}
		}
	}
}

// TestCorruptedExpectationsFail feeds each kind of check something
// wrong and expects it counted against the attempts.
func TestCorruptedExpectationsFail(t *testing.T) {
	h := newHarness(workloads[0], tinySizes, 7, 0.1, false, t.TempDir())

	job := simJob{label: "x", kernel: "fft", tiles: 4, ops: 30, mode: repro.ModeReciprocal, seed: 7}
	cfg := job.config()
	wl, err := workload.ByName(job.kernel, job.tiles, job.ops, job.seed)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := repro.BuildCosim(cfg, job.mode, wl)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	res := cs.Run(cycleLimit)
	if p := checkRun(job, cfg, cs, res); len(p) != 0 {
		t.Fatalf("a good run is reported as %v", p)
	}
	greedy := job
	greedy.ops *= 1000
	h.attempt("inflated budget", checkRun(greedy, cfg, cs, res))
	short := res
	short.Finished = false
	h.attempt("unfinished", checkRun(job, cfg, cs, short))
	skewed := res
	skewed.MaxSkew = 1 << 20
	h.attempt("skew", checkRun(job, cfg, cs, skewed))

	h.attempt("first fingerprint", h.pinFingerprint("x", "a"))
	h.attempt("moved fingerprint", h.pinFingerprint("x", "b"))
	h.attempt("shares", shareProblems(0.9))
	h.checkServed(1, &served{envelope: []byte("{")})
	h.checkServed(1, &served{envelope: []byte(`{"fingerprint":"f","result":{"Finished":false}}`)})

	rec := h.finish()
	// Of the attempts above only "first fingerprint" passes; finish adds
	// one failed attempt per end-to-end metric, none of which was
	// sampled here.
	if want := 7 + len(endToEnd); rec.Failed != want || rec.Attempted != want+1 {
		t.Errorf("attempted %d failed %d, want %d and %d: %v", rec.Attempted, rec.Failed, want+1, want, rec.Failures)
	}
	var out bytes.Buffer
	rec.print(&out)
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Error("a run with failures printed correct=true")
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		spec metricSpec
		want string
	}{
		{"equal", steady, m, "same"},
		{"better", shift(steady, 0.5), m, "same"},
		{"within bound", shift(steady, 1.08), m, "same"},
		{"worse", shift(steady, 1.2), m, "worse"},
		{"higher is better, lower is worse", shift(steady, 0.8), metricSpec{Name: "y", Better: "higher", Bound: 0.10}, "worse"},
		{"noisy", []float64{60, 140, 100, 70, 130, 90, 110, 65, 135, 100}, m, "unresolved"},
	} {
		if _, _, _, _, got := verdict(c.spec, steady, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// The quartiles are Python's statistics.quantiles(n=4).
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1 (quartiles 2.75 and 8.25 around median 5.5)", got)
	}
}
