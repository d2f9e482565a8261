//simlint:allow-file wallclock the benchmark harness measures host time from outside the simulator; nothing here feeds simulated state

package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// sizes fixes every workload's inputs. The committed numbers come from
// fullSizes; tinySizes exists for the smoke test and is never used by a
// measured run. Nothing here scales at run time: --seconds decides how
// many fixed-size repetitions (or closed-loop sessions) fit, not how
// big one is.
type sizes struct {
	recipTiles, recipOps int
	absTiles, absOps     int
	calibTiles, calibOps int
	nocWidth, nocCycles  int
	accTiles, accOps     int
	guardTiles, guardOps int

	serveTiles, serveOps    int
	serveOutstanding        int // sessions each client keeps in flight
	serveBatch              int // sessions in one timed batch
	serveVerifyEvery        int // every n-th session is re-run in process
	serveCacheResubmits     int
	captureTiles, captureIt int // small-state capture probe, timed iterations
	captureQuanta           int // how far into the run state is captured
}

var fullSizes = sizes{
	recipTiles: 256, recipOps: 70,
	absTiles: 1024, absOps: 130,
	calibTiles: 64, calibOps: 240,
	nocWidth: 32, nocCycles: 768,
	accTiles: 64, accOps: 90,
	guardTiles: 16, guardOps: 250,
	serveTiles: 16, serveOps: 125,
	serveOutstanding: 8, serveBatch: 32, serveVerifyEvery: 8, serveCacheResubmits: 32,
	captureTiles: 16, captureIt: 20, captureQuanta: 64,
}

var tinySizes = sizes{
	recipTiles: 16, recipOps: 40,
	absTiles: 16, absOps: 40,
	calibTiles: 16, calibOps: 40,
	nocWidth: 4, nocCycles: 128,
	accTiles: 16, accOps: 40,
	guardTiles: 4, guardOps: 30,
	serveTiles: 4, serveOps: 40,
	serveOutstanding: 2, serveBatch: 8, serveVerifyEvery: 2, serveCacheResubmits: 2,
	captureTiles: 4, captureIt: 2, captureQuanta: 4,
}

// cycleLimit bounds every simulation; a run that reaches it has failed.
const cycleLimit = 50_000_000

// harness is one invocation: one workload, one seed, traced or not.
type harness struct {
	wl      *workloadSpec
	sz      sizes
	seed    uint64
	seconds float64
	traced  bool
	outDir  string

	tr      *tracer
	samples map[string][]float64
	// unscaled holds the as-measured twin of every host-time sample that
	// was scaled to the reference host; slowness every reading of the
	// host's speed taken during the run (hostspeed.go).
	unscaled map[string][]float64
	slowness []float64

	attempted int
	failures  []string
	failedOps int

	fingerprints map[string]string
	notes        []string
	started      time.Time
}

func newHarness(wl *workloadSpec, sz sizes, seed uint64, seconds float64, traced bool, outDir string) *harness {
	h := &harness{
		wl: wl, sz: sz, seed: seed, seconds: seconds, traced: traced,
		outDir:       outDir,
		samples:      map[string][]float64{},
		unscaled:     map[string][]float64{},
		fingerprints: map[string]string{},
		started:      time.Now(),
	}
	if traced {
		h.tr = newTracer()
	}
	return h
}

// observe adds one sample of a metric; the reported value is the median
// of a metric's samples.
func (h *harness) observe(name string, v float64) {
	h.samples[name] = append(h.samples[name], v)
}

// observeScaled adds one host-time sample scaled to the reference host
// and keeps the value as measured beside it.
func (h *harness) observeScaled(name string, scaled, measured float64) {
	h.observe(name, scaled)
	h.unscaled[name] = append(h.unscaled[name], measured)
}

func (h *harness) note(format string, args ...any) {
	h.notes = append(h.notes, fmt.Sprintf(format, args...))
}

// attempt counts one operation whose outcome is checked; problems lists
// what was wrong with it (none: it passed).
func (h *harness) attempt(what string, problems []string) {
	h.attempted++
	if len(problems) > 0 {
		h.failedOps++
		h.failures = append(h.failures, what+": "+strings.Join(problems, "; "))
	}
}

// pinFingerprint records the first fingerprint seen under a label and
// reports a problem when a later one differs: repetitions, and the
// traced and the untraced run, must agree bit for bit.
func (h *harness) pinFingerprint(label, fp string) []string {
	if first, ok := h.fingerprints[label]; ok && first != fp {
		return []string{fmt.Sprintf("fingerprint differs from the first run of %s", label)}
	}
	h.fingerprints[label] = fp
	return nil
}

// remaining reports how much of the measurement window is left.
func (h *harness) remaining(since time.Time) time.Duration {
	return time.Duration(h.seconds*float64(time.Second)) - time.Since(since)
}

// metricValue is one reported metric with its noise record.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	// Unscaled is the median as measured on this host, for host-time
	// metrics that are reported scaled to the reference host.
	Unscaled float64 `json:"unscaled,omitempty"`
}

// hostInfo says where the numbers were measured.
type hostInfo struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

// record is the full result of one invocation, kept in
// <out>/<workload>.json (and appended to <out>/runs.jsonl) so two sets
// of runs can be compared with -compare.
type record struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Sizes    string   `json:"sizes"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	// HostSlowness is the median reading of the reference kernel during
	// the run, as a multiple of its time on the reference host.
	HostSlowness float64                `json:"host_slowness"`
	ElapsedS     float64                `json:"elapsed_s"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Failures     []string               `json:"failures,omitempty"`
	Fingerprints map[string]string      `json:"fingerprints"`
	Notes        []string               `json:"notes,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish turns the samples into the record: the specs of this run's
// mode, each with median, min and max. A metric the workload never
// observed reads 0 (per-layer only; an end-to-end metric with no sample
// is a failure, because every workload must report all of them).
func (h *harness) finish() record {
	specs := endToEnd
	if h.traced {
		specs = perLayer
		h.observe("host.slowness", median(h.slowness))
	}
	rec := record{
		Workload: h.wl.Name, Why: h.wl.why(h.sz), Sizes: h.wl.sizes(h.sz),
		Seed: h.seed, Seconds: h.seconds, Traced: h.traced,
		Host:         host(),
		HostSlowness: median(h.slowness),
		Fingerprints: h.fingerprints,
		Notes:        h.notes,
		Metrics:      map[string]metricValue{},
	}
	for _, m := range specs {
		s := h.samples[m.Name]
		mv := metricValue{Unit: m.Unit, N: len(s)}
		if len(s) > 0 {
			mv.Value, mv.Min, mv.Max = median(s), slices.Min(s), slices.Max(s)
			mv.Unscaled = median(h.unscaled[m.Name])
		} else if !h.traced {
			h.attempt("metric "+m.Name, []string{"no sample"})
		}
		rec.Metrics[m.Name] = mv
	}
	if h.attempted == 0 {
		h.attempt("run", []string{"nothing was attempted"})
	}
	rec.Attempted, rec.Failed, rec.Failures = h.attempted, h.failedOps, h.failures
	rec.ElapsedS = time.Since(h.started).Seconds()
	return rec
}

// print writes the human-readable report and, last, the contract line.
func (rec record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  window %gs  elapsed %.1fs\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Seconds, rec.ElapsedS)
	fmt.Fprintf(w, "  why:   %s\n  sizes: %s\n", rec.Why, rec.Sizes)
	fmt.Fprintf(w, "  host:  commit %s  nproc %d  GOMAXPROCS %d  %s  %s %s\n",
		rec.Host.Commit, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.CPUModel, rec.Host.GoVersion, rec.Host.OSArch)
	fmt.Fprintln(w, "  time:  *_s, *_ms, *_us, *_per_s and ns_* are host time; *_cyc, *_pct and counts are simulated and repeat exactly for a seed")
	if !rec.Traced {
		fmt.Fprintf(w, "  speed: this host ran the reference kernel at %.3fx its reference time; host-time metrics are scaled to the reference host, 'measured' is the median on this one\n", rec.HostSlowness)
	}
	fmt.Fprintln(w, "  state: every simulation starts with empty modelled caches, as a user's does")
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  note:  %s\n", n)
	}
	specs := endToEnd
	if rec.Traced {
		specs = perLayer
	}
	fmt.Fprintf(w, "  %-34s %14s %-10s %14s %14s %4s %14s\n", "metric", "median", "unit", "min", "max", "n", "measured")
	for _, m := range specs {
		mv := rec.Metrics[m.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-10s %14.6g %14.6g %4d", m.Name, mv.Value, mv.Unit, mv.Min, mv.Max, mv.N)
		if mv.Unscaled != 0 {
			fmt.Fprintf(w, " %14.6g", mv.Unscaled)
		}
		fmt.Fprintln(w)
	}
	labels := make([]string, 0, len(rec.Fingerprints))
	for l := range rec.Fingerprints {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	// A server run has one fingerprint per session; print their digest.
	if len(labels) > 16 {
		sum := fnv.New64a()
		for _, l := range labels {
			fmt.Fprintf(sum, "%s=%s\n", l, rec.Fingerprints[l])
		}
		fmt.Fprintf(w, "  fingerprints: %d (in the record), digest %016x\n", len(labels), sum.Sum64())
	} else {
		for _, l := range labels {
			fmt.Fprintf(w, "  fingerprint %s: %s\n", l, rec.Fingerprints[l])
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	line := contractLine{
		Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]contractValue{},
	}
	for name, mv := range rec.Metrics {
		line.Metrics[name] = contractValue{mv.Value, mv.Unit}
	}
	blob, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", blob)
}

// save writes the record, appends it to the run log, and writes the
// trace of a traced run.
func (h *harness) save(rec record) error {
	if err := os.MkdirAll(h.outDir, 0o777); err != nil {
		return err
	}
	suffix := ""
	if h.traced {
		suffix = ".traced"
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(h.outDir, rec.Workload+suffix+".json"), blob, 0o666); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(h.outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if h.tr != nil {
		return h.tr.writeChrome(filepath.Join(h.outDir, rec.Workload+".trace.json"))
	}
	return nil
}

// host describes the machine. The commit comes from the build's VCS
// stamp; a checkout that is not a repository reports "unknown".
func host() hostInfo {
	hi := hostInfo{
		Commit: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				hi.Commit = s.Value
			}
		}
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				hi.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return hi
}

// heapNow forces a collection and reports the live Go heap in bytes.
func heapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// liveMB is the heap held above a baseline, floored at one kilobyte so
// the metric is never zero.
func liveMB(now, baseline uint64) float64 {
	if now <= baseline+1024 {
		return 1024.0 / (1 << 20)
	}
	return float64(now-baseline) / (1 << 20)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
