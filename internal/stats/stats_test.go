package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Count() != 0 || r.Mean() != 0 || r.StdDev() != 0 {
		t.Fatal("zero value should be empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.Count() != 8 {
		t.Errorf("count = %d", r.Count())
	}
	if !almost(r.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", r.Mean())
	}
	// Population sd of this classic set is 2; sample variance = 32/7.
	if !almost(r.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v", r.Variance())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v", r.Min(), r.Max())
	}
	if r.Sum() != 40 {
		t.Errorf("sum = %v", r.Sum())
	}
}

// Property: merging two accumulators equals accumulating the
// concatenation.
func TestRunningMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		clamp := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clamp(a), clamp(b)
		var ra, rb, rc Running
		for _, x := range a {
			ra.Add(x)
			rc.Add(x)
		}
		for _, x := range b {
			rb.Add(x)
			rc.Add(x)
		}
		ra.Merge(rb)
		if ra.Count() != rc.Count() {
			return false
		}
		if ra.Count() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(rc.Mean()))
		return almost(ra.Mean(), rc.Mean(), 1e-6*scale) &&
			almost(ra.Variance(), rc.Variance(), 1e-4*math.Max(1, rc.Variance())) &&
			ra.Min() == rc.Min() && ra.Max() == rc.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) - 0.5)
	}
	if got := h.Percentile(0.5); !almost(got, 50, 1) {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Percentile(0.95); !almost(got, 95, 1) {
		t.Errorf("p95 = %v", got)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHistogramOverflowAndNegative(t *testing.T) {
	h := NewHistogram(1, 4)
	h.Add(-3) // clamps to bin 0
	h.Add(10) // overflow
	h.Add(2.5)
	if h.Bin(0) != 1 || h.Overflow() != 1 || h.Bin(2) != 1 {
		t.Errorf("bins: %d %d overflow %d", h.Bin(0), h.Bin(2), h.Overflow())
	}
	if got := h.Percentile(1.0); got != 10 {
		t.Errorf("max percentile should resolve to exact max, got %v", got)
	}
}

func TestHistogramMergePanicsOnGeometryMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, 4).Merge(NewHistogram(2, 4))
}

func TestErrorMetrics(t *testing.T) {
	if got := AbsPctErr(110, 100); !almost(got, 10, 1e-12) {
		t.Errorf("AbsPctErr = %v", got)
	}
	if got := AbsPctErr(90, 100); !almost(got, 10, 1e-12) {
		t.Errorf("AbsPctErr = %v", got)
	}
	if got := AbsPctErr(0, 0); got != 0 {
		t.Errorf("0/0 = %v", got)
	}
	if got := AbsPctErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("x/0 = %v", got)
	}
	if got := ErrorReduction(20, 5); !almost(got, 75, 1e-12) {
		t.Errorf("ErrorReduction = %v", got)
	}
	if got := ErrorReduction(0, 5); got != 0 {
		t.Errorf("ErrorReduction from 0 = %v", got)
	}
}

func TestLatencyTracker(t *testing.T) {
	tr := NewLatencyTracker(2, 64)
	tr.Record(ClassRequest, 1, 9, 3)
	tr.Record(ClassResponse, 2, 18, 5)
	if tr.Count() != 2 || !almost(tr.Mean(), 15, 1e-12) {
		t.Errorf("mean = %v", tr.Mean())
	}
	if !almost(tr.MeanNetwork(), 13.5, 1e-12) || !almost(tr.MeanQueueing(), 1.5, 1e-12) {
		t.Errorf("components: %v %v", tr.MeanNetwork(), tr.MeanQueueing())
	}
	if tr.ClassCount(ClassRequest) != 1 || !almost(tr.ClassMean(ClassResponse), 20, 1e-12) {
		t.Error("per-class stats wrong")
	}
	if !almost(tr.MeanHops(), 4, 1e-12) {
		t.Errorf("hops = %v", tr.MeanHops())
	}
	other := NewLatencyTracker(2, 64)
	other.Record(ClassControl, 0, 10, 2)
	tr.Merge(other)
	if tr.Count() != 3 {
		t.Errorf("merged count = %d", tr.Count())
	}
	tr.Reset()
	if tr.Count() != 0 || tr.Mean() != 0 {
		t.Error("reset failed")
	}
}

func TestLatencyClassNames(t *testing.T) {
	if ClassRequest.String() != "req" || ClassResponse.String() != "resp" || ClassControl.String() != "ctrl" {
		t.Error("class names wrong")
	}
	if !strings.Contains(LatencyClass(9).String(), "9") {
		t.Error("unknown class should include number")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.234)
	tb.AddRow("beta, with comma", 42)
	text := tb.String()
	if !strings.Contains(text, "== demo ==") || !strings.Contains(text, "1.23") {
		t.Errorf("text rendering:\n%s", text)
	}
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	csv := b.String()
	if !strings.Contains(csv, `"beta, with comma"`) {
		t.Errorf("CSV quoting:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("CSV header:\n%s", csv)
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("j", "a", "b")
	tb.AddRow("x", 1)
	var sb strings.Builder
	if err := tb.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	if out.Title != "j" || len(out.Rows) != 1 || out.Rows[0][1] != "1" {
		t.Errorf("json round trip: %+v", out)
	}
}
