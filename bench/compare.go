package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readLog reads a run log (one record per line, as -out's runs.jsonl)
// and keeps the untraced records: end-to-end numbers always come from
// the untraced run.
func readLog(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !rec.Traced {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median, the way Python's statistics.quantiles(n=4)
// computes the quartiles (exclusive method). One value has no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return math.Inf(1)
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// verdict judges one workload x metric: "unresolved" when either side's
// run-to-run spread is wider than the bound (the data cannot tell),
// "worse" when b's median is worse than a's by more than the bound,
// "same" otherwise (which includes better).
func verdict(m metricSpec, a, b []float64) (medA, medB, rel, spr float64, v string) {
	medA, medB = median(a), median(b)
	spr = math.Max(spread(a), spread(b))
	if medA != 0 {
		rel = (medB - medA) / math.Abs(medA)
	}
	worse := rel
	if m.Better == "higher" {
		worse = -rel
	}
	switch {
	case spr > m.Bound:
		v = "unresolved"
	case worse > m.Bound:
		v = "worse"
	default:
		v = "same"
	}
	return
}

// compareLogs prints, per workload and end-to-end metric, both medians,
// the relative difference, the bound and the verdict, then whether the
// fingerprints of runs with equal seeds agree. It returns 1 when any
// row is worse or unresolved or any fingerprint moved.
func compareLogs(w io.Writer, pathA, pathB string) int {
	a, err := readLog(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no untraced runs", pathA)
	}
	var b []record
	if err == nil {
		b, err = readLog(pathB)
	}
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s holds no untraced runs", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	values := func(recs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if mv, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, mv.Value)
			}
		}
		return out
	}
	bad := 0
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "diff", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, rel, spr, v := verdict(m, va, vb)
			if v != "same" {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-28s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, medA, medB, rel*100, spr*100, m.Bound*100, v, len(va), len(vb))
		}
	}
	// Simulated results of equal inputs must agree exactly.
	type key struct {
		workload string
		seed     uint64
		label    string
	}
	first := map[key]string{}
	for _, r := range a {
		for label, fp := range r.Fingerprints {
			first[key{r.Workload, r.Seed, label}] = fp
		}
	}
	compared, moved := 0, 0
	for _, r := range b {
		for label, fp := range r.Fingerprints {
			if want, ok := first[key{r.Workload, r.Seed, label}]; ok {
				compared++
				if want != fp {
					moved++
					fmt.Fprintf(w, "fingerprint moved: %s seed %d %s\n  a: %s\n  b: %s\n", r.Workload, r.Seed, label, want, fp)
				}
			}
		}
	}
	fmt.Fprintf(w, "fingerprints: %d compared at equal workload and seed, %d moved\n", compared, moved)
	fmt.Fprintf(w, "rows not 'same': %d\n", bad)
	if bad > 0 || moved > 0 {
		return 1
	}
	return 0
}
