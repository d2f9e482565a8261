package obs

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/calib"
	"repro/internal/sim"
	"repro/internal/stats"
)

// retuneFeed is a fixed, interleaved sequence of retunes of three
// components, with an empty-window refit every few events and the
// drift changing sign.
func retuneFeed(n int) (comps []string, events []calib.RetuneEvent) {
	names := []string{"mem-calibrated[3]", "calibrated", "mem-calibrated[0]"}
	for i := 0; i < n; i++ {
		e := calib.RetuneEvent{
			At:           sim.Cycle(64 * (i + 1)),
			Alpha:        1 + float64(i%7)/10,
			Beta:         float64(i%5) - 2.25,
			Residual:     0.5 + float64(i%11)/3,
			Drift:        float64((i*37)%23) - 11.5,
			Observations: (i * 13) % 9,
			Window:       256,
		}
		if i%6 == 5 {
			e.Observations = 0
		}
		comps = append(comps, names[(i*i+i/3)%len(names)])
		events = append(events, e)
	}
	return comps, events
}

// wantSummaries reduces the feed the way Summary documents it: sums in
// emission order, means over fed retunes, the last fed coefficients.
func wantSummaries(comps []string, events []calib.RetuneEvent) []Summary {
	by := map[string]*Summary{}
	sums := map[string]*[2]float64{}
	var names []string
	for i, e := range events {
		s := by[comps[i]]
		if s == nil {
			s = &Summary{Component: comps[i]}
			by[comps[i]], sums[comps[i]] = s, new([2]float64)
			names = append(names, comps[i])
		}
		s.Retunes++
		if e.Observations == 0 {
			continue
		}
		s.Fed++
		s.Alpha, s.Beta = e.Alpha, e.Beta
		sums[comps[i]][0] += e.Residual
		sums[comps[i]][1] += math.Abs(e.Drift)
		s.MaxAbsDrift = math.Max(s.MaxAbsDrift, math.Abs(e.Drift))
	}
	sort.Strings(names)
	var out []Summary
	for _, name := range names {
		s := *by[name]
		if s.Fed > 0 {
			s.MeanResidual = sums[name][0] / float64(s.Fed)
			s.MeanAbsDrift = sums[name][1] / float64(s.Fed)
		}
		out = append(out, s)
	}
	return out
}

func TestCalibSummaryPinned(t *testing.T) {
	comps, events := retuneFeed(200)
	ob := New(Options{Calib: true})
	sinks := map[string]calib.RetuneSink{}
	for i, e := range events {
		if sinks[comps[i]] == nil {
			sinks[comps[i]] = ob.RetuneSink(comps[i])
		}
		sinks[comps[i]](e)
	}

	want := wantSummaries(comps, events)
	got := ob.Calib().Summarize()
	if len(got) != len(want) {
		t.Fatalf("%d summaries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("summary %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	tbl := stats.NewTable("retunes",
		"component", "retunes", "fed", "alpha", "beta", "mean-resid", "mean-|drift|", "max-|drift|")
	for _, s := range want {
		tbl.AddRow(s.Component, s.Retunes, s.Fed, s.Alpha, s.Beta,
			s.MeanResidual, s.MeanAbsDrift, s.MaxAbsDrift)
	}
	if g, w := ob.CalibTable("retunes").String(), tbl.String(); g != w {
		t.Errorf("calib table\n%s\nwant\n%s", g, w)
	}

	// A component whose sink never fires has no summary row.
	ob.RetuneSink("silent")
	if n := len(ob.Calib().Summarize()); n != len(want) {
		t.Errorf("%d summaries after an idle sink, want %d", n, len(want))
	}
	var off *Observer
	if off.Calib().Summarize() != nil || off.CalibTable("x").String() != stats.NewTable("x",
		"component", "retunes", "fed", "alpha", "beta", "mean-resid", "mean-|drift|", "max-|drift|").String() {
		t.Error("a disabled observer summarised retunes")
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func TestCalibLogDoesNotGrow(t *testing.T) {
	const n = 1 << 16
	comps, events := retuneFeed(64)
	ob := New(Options{Calib: true})
	sinks := make([]calib.RetuneSink, len(events))
	for i := range events {
		sinks[i] = ob.RetuneSink(comps[i])
	}
	sinks[0](events[0])
	before := liveHeap()
	for i := 0; i < n; i++ {
		sinks[i%len(sinks)](events[i%len(events)])
	}
	after := liveHeap()
	runtime.KeepAlive(sinks)
	if grew := int64(after) - int64(before); grew > 64<<10 {
		t.Errorf("%d retunes left %d more bytes of live heap", n, grew)
	}
	if got := ob.Calib().Summarize(); got[0].Retunes+got[1].Retunes+got[2].Retunes != n+1 {
		t.Errorf("summaries %+v do not count %d retunes", got, n+1)
	}
}
