package topology

import (
	"fmt"
	"testing"
)

// channel is one (router, output port, VC set) buffer class of a
// network: what a packet holds while it waits for its next hop.
type channel struct{ router, port, set int }

// dependencies builds the channel-dependency graph of routing r on
// topology t: an edge from channel a to channel b whenever some (src,
// dst) route may ask for b while it holds a. Every choice Route offers
// is followed, so an adaptive function contributes all its turns.
func dependencies(t Topology, r Routing) map[channel][]channel {
	type state struct{ router, set int }
	graph := make(map[channel][]channel)
	edge := make(map[[2]channel]bool)
	for src := 0; src < t.NumTerminals(); src++ {
		sr, _ := t.RouterOf(src)
		for dst := 0; dst < t.NumTerminals(); dst++ {
			dr, _ := t.RouterOf(dst)
			if sr == dr {
				continue
			}
			// held is the channel a packet holds on arrival at a state.
			type arrival struct {
				at   state
				held channel
				has  bool
			}
			frontier := []arrival{{at: state{sr, 0}}}
			seen := make(map[arrival]bool)
			for len(frontier) > 0 {
				cur := frontier[0]
				frontier = frontier[1:]
				if seen[cur] || cur.at.router == dr {
					continue
				}
				seen[cur] = true
				for _, ch := range r.Route(cur.at.router, src, dst, cur.at.set, nil) {
					next := channel{cur.at.router, ch.Port, ch.VCSet}
					if cur.has && !edge[[2]channel{cur.held, next}] {
						edge[[2]channel{cur.held, next}] = true
						graph[cur.held] = append(graph[cur.held], next)
					}
					nb, _, _ := t.Link(cur.at.router, ch.Port)
					frontier = append(frontier, arrival{state{nb, ch.VCSet}, next, true})
				}
			}
		}
	}
	return graph
}

// findCycle returns one cycle of the graph as a path, or nil. Nodes are
// visited in a fixed order so a failure names the same cycle each run.
func findCycle(graph map[channel][]channel, nodes []channel) []channel {
	const (
		unseen = iota
		onPath
		done
	)
	color := make(map[channel]int)
	var path []channel
	var visit func(c channel) []channel
	visit = func(c channel) []channel {
		color[c] = onPath
		path = append(path, c)
		for _, n := range graph[c] {
			switch color[n] {
			case onPath:
				for i := range path {
					if path[i] == n {
						return append(append([]channel(nil), path[i:]...), n)
					}
				}
			case unseen:
				if cyc := visit(n); cyc != nil {
					return cyc
				}
			}
		}
		path = path[:len(path)-1]
		color[c] = done
		return nil
	}
	for _, c := range nodes {
		if color[c] == unseen {
			if cyc := visit(c); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// TestRoutingIsDeadlockFree is the static half of the deadlock check:
// each shipped routing function's channel-dependency graph must be
// acyclic (Dally and Seitz), on every grid of side 3 to 6 — tori of
// both parities, so the ties torusStep breaks by parity are covered.
func TestRoutingIsDeadlockFree(t *testing.T) {
	for side := 3; side <= 6; side++ {
		mesh, torus := NewMesh(side, side, 1), NewTorus(side, side, 1)
		for _, tc := range []struct {
			topo Topology
			r    Routing
		}{
			{mesh, NewXY(mesh)},
			{mesh, NewYX(mesh)},
			{mesh, NewOddEven(mesh)},
			{torus, NewTorusDOR(torus)},
		} {
			t.Run(fmt.Sprintf("%s/%d", tc.r.Name(), side), func(t *testing.T) {
				graph := dependencies(tc.topo, tc.r)
				var nodes []channel
				for router := 0; router < tc.topo.NumRouters(); router++ {
					for port := 0; port < tc.topo.Ports(); port++ {
						for set := 0; set < tc.r.VCSets(); set++ {
							nodes = append(nodes, channel{router, port, set})
						}
					}
				}
				if len(graph) == 0 {
					t.Fatal("no channel dependencies found")
				}
				if cyc := findCycle(graph, nodes); cyc != nil {
					t.Fatalf("channel-dependency cycle (router, port, VC set): %v", cyc)
				}
			})
		}
	}
}
