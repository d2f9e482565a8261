// Package stats provides the statistics primitives shared by every
// simulator in this repository: streaming moments, histograms,
// percentile estimation, per-class latency tracking, and the error
// metrics used by the accuracy experiments.
//
// All accumulators are plain values whose zero value is ready to use,
// so simulator components can embed them without constructors.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates streaming count, mean, and variance using
// Welford's algorithm. The zero value is an empty accumulator.
type Running struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Merge combines another accumulator into r (Chan et al. parallel update).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.mean += d * float64(o.n) / float64(n)
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// Count reports the number of observations.
func (r *Running) Count() uint64 { return r.n }

// Mean reports the sample mean, or 0 for an empty accumulator.
func (r *Running) Mean() float64 { return r.mean }

// Sum reports the sum of all observations.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// Variance reports the unbiased sample variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev reports the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min reports the smallest observation, or 0 when empty.
func (r *Running) Min() float64 { return r.min }

// Max reports the largest observation, or 0 when empty.
func (r *Running) Max() float64 { return r.max }

// Reset returns the accumulator to the empty state.
func (r *Running) Reset() { *r = Running{} }

// String formats the accumulator for logs.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// Histogram is a fixed-bin-width histogram over [0, BinWidth*len(bins)),
// with an overflow bin. It also keeps exact streaming moments so Mean is
// not subject to binning error. The zero value is unusable; create with
// NewHistogram.
type Histogram struct {
	binWidth float64
	bins     []uint64
	overflow uint64
	moments  Running
}

// NewHistogram returns a histogram with nbins bins of the given width.
func NewHistogram(binWidth float64, nbins int) *Histogram {
	if binWidth <= 0 {
		panic("stats: histogram bin width must be positive")
	}
	if nbins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	return &Histogram{binWidth: binWidth, bins: make([]uint64, nbins)}
}

// Add records one observation. Negative observations clamp to bin 0.
func (h *Histogram) Add(x float64) {
	h.moments.Add(x)
	if x < 0 {
		h.bins[0]++
		return
	}
	i := int(x / h.binWidth)
	if i >= len(h.bins) {
		h.overflow++
		return
	}
	h.bins[i]++
}

// Count reports total observations including overflow.
func (h *Histogram) Count() uint64 { return h.moments.Count() }

// Mean reports the exact (unbinned) mean.
func (h *Histogram) Mean() float64 { return h.moments.Mean() }

// Max reports the exact maximum observation.
func (h *Histogram) Max() float64 { return h.moments.Max() }

// Overflow reports how many observations exceeded the binned range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Bin reports the count in bin i.
func (h *Histogram) Bin(i int) uint64 { return h.bins[i] }

// Percentile estimates the p-quantile (0 < p <= 1) from the binned counts,
// attributing each bin's mass to its upper edge. Overflow mass resolves to
// the exact observed maximum.
func (h *Histogram) Percentile(p float64) float64 {
	total := h.moments.Count()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.bins {
		cum += c
		if cum >= target {
			return float64(i+1) * h.binWidth
		}
	}
	return h.moments.Max()
}

// Merge adds another histogram's contents; bin geometry must match.
func (h *Histogram) Merge(o *Histogram) {
	if h.binWidth != o.binWidth || len(h.bins) != len(o.bins) {
		panic("stats: merging histograms with different geometry")
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.overflow += o.overflow
	h.moments.Merge(o.moments)
}

// Reset clears all counts.
func (h *Histogram) Reset() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.overflow = 0
	h.moments.Reset()
}

// AbsPctErr reports |measured-reference|/reference as a percentage.
// A zero reference with nonzero measurement reports +Inf; both zero is 0.
func AbsPctErr(measured, reference float64) float64 {
	if reference == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(measured-reference) / math.Abs(reference) * 100
}

// ErrorReduction reports the percentage by which errNew improves on errOld:
// 100*(errOld-errNew)/errOld. Zero errOld reports 0.
func ErrorReduction(errOld, errNew float64) float64 {
	if errOld == 0 {
		return 0
	}
	return (errOld - errNew) / errOld * 100
}
