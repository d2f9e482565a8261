package noc

import (
	"strconv"

	"repro/internal/stats"
)

// EnergyParams are per-event dynamic energies and per-cycle leakage,
// in picojoules — an Orion-style event-count power model at a 45 nm
// class technology point. Absolute values matter less than the
// breakdown structure; swap in calibrated numbers for real studies.
type EnergyParams struct {
	// BufWrite and BufRead are per-flit buffer access energies.
	BufWrite, BufRead float64
	// Xbar is the per-flit crossbar traversal energy.
	Xbar float64
	// Arb is the per-grant allocation (VC or switch) energy.
	Arb float64
	// Link is the per-flit link traversal energy.
	Link float64
	// RouterLeak and LinkLeak are per-cycle static energies per router
	// and per link.
	RouterLeak, LinkLeak float64
}

// DefaultEnergy returns the baseline technology point.
func DefaultEnergy() EnergyParams {
	return EnergyParams{
		BufWrite:   1.2,
		BufRead:    0.9,
		Xbar:       2.1,
		Arb:        0.18,
		Link:       1.7,
		RouterLeak: 0.45,
		LinkLeak:   0.12,
	}
}

// PowerReport is the network's accumulated energy, decomposed by
// component, plus derived averages.
type PowerReport struct {
	Cycles uint64

	BufferPJ  float64
	XbarPJ    float64
	ArbPJ     float64
	LinkPJ    float64
	LeakagePJ float64

	// Events underlying the numbers.
	BufWrites, BufReads, XbarFlits, Arbs, LinkFlits uint64
}

// DynamicPJ reports total switching energy.
func (r PowerReport) DynamicPJ() float64 {
	return r.BufferPJ + r.XbarPJ + r.ArbPJ + r.LinkPJ
}

// TotalPJ reports dynamic plus leakage energy.
func (r PowerReport) TotalPJ() float64 { return r.DynamicPJ() + r.LeakagePJ }

// AvgPowerMW reports average power for a clock frequency in GHz
// (pJ/cycle × GHz = mW).
func (r PowerReport) AvgPowerMW(ghz float64) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return r.TotalPJ() / float64(r.Cycles) * ghz
}

// Table renders the report for tools and experiments.
func (r PowerReport) Table(title string, ghz float64) *stats.Table {
	t := stats.NewTable(title, "component", "energy-uJ", "share-%")
	total := r.TotalPJ()
	row := func(name string, pj float64) {
		share := 0.0
		if total > 0 {
			share = pj / total * 100
		}
		t.AddRow(name, pj/1e6, share)
	}
	row("buffers", r.BufferPJ)
	row("crossbar", r.XbarPJ)
	row("allocators", r.ArbPJ)
	row("links", r.LinkPJ)
	row("leakage", r.LeakagePJ)
	t.AddRow("total", total/1e6, 100.0)
	ghzLabel := strconv.FormatFloat(ghz, 'g', -1, 64) + "GHz"
	t.AddRow("avg power (mW @"+ghzLabel+")", r.AvgPowerMW(ghz), "")
	return t
}

// Energy computes the accumulated power report from the network's
// event counters under the given technology parameters.
func (n *Network) Energy(p EnergyParams) PowerReport {
	var r PowerReport
	r.Cycles = uint64(n.cycle)
	links := 0
	for rp, flits := range n.outFlits {
		r.XbarFlits += flits
		if n.linked(rp) {
			r.LinkFlits += flits
			links++
		}
	}
	for i := range n.bufWrites {
		r.BufWrites += n.bufWrites[i]
		r.BufReads += n.bufReads[i]
		r.Arbs += n.arbGrants[i]
	}
	r.BufferPJ = float64(r.BufWrites)*p.BufWrite + float64(r.BufReads)*p.BufRead
	r.XbarPJ = float64(r.XbarFlits) * p.Xbar
	r.ArbPJ = float64(r.Arbs) * p.Arb
	r.LinkPJ = float64(r.LinkFlits) * p.Link
	r.LeakagePJ = float64(r.Cycles) * (float64(n.routers)*p.RouterLeak + float64(links)*p.LinkLeak)
	return r
}
