package noc

import (
	"fmt"
	"strings"
)

// LinkUtilization reports per-directed-link utilization (flits per
// cycle) keyed by (router, direction port).
func (n *Network) LinkUtilization() map[[2]int]float64 {
	out := make(map[[2]int]float64)
	if n.cycle == 0 {
		return out
	}
	for rp := range n.peer {
		if n.linked(rp) {
			out[[2]int{rp / n.ports, rp % n.ports}] = float64(n.outFlits[rp]) / float64(n.cycle)
		}
	}
	return out
}

// Heatmap renders router load (total flits switched per cycle per
// router, normalized to the hottest router) as an ASCII grid, for grid
// topologies. Each cell is a digit 0-9; '*' marks the hottest router.
func (n *Network) Heatmap() string {
	g, ok := n.topo.(interface {
		Coord(router int) (x, y int)
		Width() int
		Height() int
	})
	if !ok {
		return "(heatmap requires a grid topology)"
	}
	loads := make([]float64, n.routers)
	var maxLoad float64
	for r := range loads {
		var total uint64
		for _, c := range n.outFlits[r*n.ports : (r+1)*n.ports] {
			total += c
		}
		loads[r] = float64(total)
		if loads[r] > maxLoad {
			maxLoad = loads[r]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "router load heatmap (0-9 relative to max %.2f flits/cycle):\n",
		maxLoad/float64(max(1, int(n.cycle))))
	for y := 0; y < g.Height(); y++ {
		for x := 0; x < g.Width(); x++ {
			r := y*g.Width() + x
			if x > 0 {
				b.WriteByte(' ')
			}
			if maxLoad == 0 {
				b.WriteByte('0')
				continue
			}
			frac := loads[r] / maxLoad
			if frac >= 0.9999 {
				b.WriteByte('*')
				continue
			}
			b.WriteByte(byte('0' + int(frac*10)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
