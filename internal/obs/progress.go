//simlint:allow-file wallclock the heartbeat measures host progress for a human; nothing here feeds simulated state

package obs

import (
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
)

// Heartbeat periodically reports host-side simulation progress
// (simulated cycles/sec, percent complete, ETA) to a writer. It is
// pure observation of the host: it reads the simulated cycle but
// never writes simulated state, so it sits outside the determinism
// contract by construction.
type Heartbeat struct {
	w         io.Writer
	every     time.Duration
	limit     sim.Cycle
	start     time.Time
	last      time.Time
	lastCycle sim.Cycle
}

// NewHeartbeat reports to w every interval (minimum 1s when
// non-positive); limit is the run's cycle bound for percent/ETA (0 =
// unknown, percent and ETA are omitted).
func NewHeartbeat(w io.Writer, every time.Duration, limit sim.Cycle) *Heartbeat {
	if every <= 0 {
		every = time.Second
	}
	now := time.Now()
	return &Heartbeat{w: w, every: every, limit: limit, start: now, last: now}
}

// Tick takes one end-of-quantum record (subscribe it to
// QuantumRecord) and prints at most once per interval.
func (h *Heartbeat) Tick(r Record) {
	cycle := r.End
	now := time.Now()
	if now.Sub(h.last) < h.every {
		return
	}
	dt := now.Sub(h.last).Seconds()
	rate := float64(cycle-h.lastCycle) / dt / 1e6
	h.last, h.lastCycle = now, cycle
	if h.limit > 0 && cycle > 0 {
		frac := float64(cycle) / float64(h.limit)
		eta := time.Duration(float64(now.Sub(h.start)) * (1 - frac) / frac).Round(time.Second)
		fmt.Fprintf(h.w, "cosim: cyc=%d (%.1f%%) %.2fM cyc/s eta=%s\n", cycle, 100*frac, rate, eta)
		return
	}
	fmt.Fprintf(h.w, "cosim: cyc=%d %.2fM cyc/s\n", cycle, rate)
}
