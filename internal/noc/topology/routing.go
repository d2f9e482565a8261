package topology

import "fmt"

// Choice is one admissible next hop for a packet: an output port and
// the virtual-channel set the packet must occupy on that link. VC sets
// partition each virtual network's channels for deadlock avoidance
// (the torus dateline discipline); meshes use a single set.
type Choice struct {
	Port  int
	VCSet int
}

// Routing computes admissible next hops. Implementations are bound to
// a topology at construction and must be stateless per call so they
// can be invoked concurrently from the NoC's shard workers.
type Routing interface {
	// Name identifies the routing function in tables and logs.
	Name() string
	// VCSets reports how many VC sets the function requires per
	// virtual network (1 for meshes, 2 for dateline tori).
	VCSets() int
	// Route appends the admissible next hops for a packet currently
	// buffered at router, injected at terminal src, destined for
	// terminal dst, occupying VC set curSet, to buf (append-style, so
	// hot paths can reuse a scratch slice). The destination-router
	// case (ejection) is handled by the router and never reaches Route.
	Route(router, src, dst, curSet int, buf []Choice) []Choice
	// Adaptive reports whether Route may return multiple choices that
	// the router should select among by congestion.
	Adaptive() bool
	// MaxChoices bounds the choices one Route call may append (1 for a
	// deterministic function). Routers size their per-VC route cache by
	// it and index past it if Route exceeds it.
	MaxChoices() int
}

// XY is deterministic dimension-order routing on a mesh: fully traverse
// X, then Y. Deadlock-free on meshes with a single VC set.
type XY struct{ m *Mesh }

// NewXY returns XY routing bound to a mesh.
func NewXY(m *Mesh) *XY { return &XY{m: m} }

func (r *XY) Name() string    { return "xy" }
func (r *XY) VCSets() int     { return 1 }
func (r *XY) Adaptive() bool  { return false }
func (r *XY) MaxChoices() int { return 1 }

func (r *XY) Route(router, src, dst, curSet int, buf []Choice) []Choice {
	dr, _ := r.m.RouterOf(dst)
	cx, cy := r.m.Coord(router)
	dx, dy := r.m.Coord(dr)
	c := r.m.LocalPorts()
	switch {
	case dx > cx:
		return append(buf, Choice{Port: c + East})
	case dx < cx:
		return append(buf, Choice{Port: c + West})
	case dy > cy:
		return append(buf, Choice{Port: c + South})
	case dy < cy:
		return append(buf, Choice{Port: c + North})
	}
	panic("topology: XY.Route called at destination router")
}

// YX is deterministic dimension-order routing traversing Y first.
type YX struct{ m *Mesh }

// NewYX returns YX routing bound to a mesh.
func NewYX(m *Mesh) *YX { return &YX{m: m} }

func (r *YX) Name() string    { return "yx" }
func (r *YX) VCSets() int     { return 1 }
func (r *YX) Adaptive() bool  { return false }
func (r *YX) MaxChoices() int { return 1 }

func (r *YX) Route(router, src, dst, curSet int, buf []Choice) []Choice {
	dr, _ := r.m.RouterOf(dst)
	cx, cy := r.m.Coord(router)
	dx, dy := r.m.Coord(dr)
	c := r.m.LocalPorts()
	switch {
	case dy > cy:
		return append(buf, Choice{Port: c + South})
	case dy < cy:
		return append(buf, Choice{Port: c + North})
	case dx > cx:
		return append(buf, Choice{Port: c + East})
	case dx < cx:
		return append(buf, Choice{Port: c + West})
	}
	panic("topology: YX.Route called at destination router")
}

// OddEven is Chiu's odd-even turn model (IEEE TPDS 2000): minimal
// adaptive mesh routing that forbids EN/ES turns in even columns and
// NW/SW turns in odd columns, breaking all channel-dependency cycles
// without extra virtual channels. The router selects among returned
// choices by congestion.
type OddEven struct{ m *Mesh }

// NewOddEven returns odd-even adaptive routing bound to a mesh.
func NewOddEven(m *Mesh) *OddEven { return &OddEven{m: m} }

func (r *OddEven) Name() string    { return "oddeven" }
func (r *OddEven) VCSets() int     { return 1 }
func (r *OddEven) Adaptive() bool  { return true }
func (r *OddEven) MaxChoices() int { return 2 }

func (r *OddEven) Route(router, src, dst, curSet int, buf []Choice) []Choice {
	dr, _ := r.m.RouterOf(dst)
	sr, _ := r.m.RouterOf(src)
	cx, cy := r.m.Coord(router)
	dx, dy := r.m.Coord(dr)
	sx, _ := r.m.Coord(sr)
	c := r.m.LocalPorts()
	e0 := dx - cx
	e1 := dy - cy
	if e0 == 0 && e1 == 0 {
		panic("topology: OddEven.Route called at destination router")
	}
	vertical := Choice{Port: c + South}
	if e1 < 0 {
		vertical = Choice{Port: c + North}
	}
	out := buf
	switch {
	case e0 == 0:
		// Same column: move vertically. Arriving here is only possible
		// in states where the vertical turn is legal (guaranteed by
		// the eastbound/westbound guards below).
		out = append(out, vertical)
	case e0 > 0: // destination to the east
		if e1 == 0 {
			out = append(out, Choice{Port: c + East})
		} else {
			// Turning north/south from an eastbound path is an EN/ES
			// turn, forbidden in even columns — unless the packet has
			// not moved east yet (its source column), where the move
			// is an injection, not a turn.
			if cx%2 == 1 || cx == sx {
				out = append(out, vertical)
			}
			// Continuing east is allowed unless the destination column
			// is even and adjacent: entering it eastbound would force
			// an illegal EN/ES turn there.
			if dx%2 == 1 || e0 != 1 {
				out = append(out, Choice{Port: c + East})
			}
		}
	default: // destination to the west
		out = append(out, Choice{Port: c + West})
		// Vertical detours while westbound must happen in even
		// columns, because rejoining west (an NW/SW turn) is forbidden
		// in odd columns.
		if e1 != 0 && cx%2 == 0 {
			out = append(out, vertical)
		}
	}
	return out
}

// TorusDOR is dimension-order routing on a torus with the dateline VC
// discipline: each dimension is traversed in its shorter direction;
// packets start in VC set 0 and switch to set 1 when crossing the
// dateline (the wrap edge), which breaks the cyclic channel dependency
// the wraparound links would otherwise create.
type TorusDOR struct{ t *Torus }

// NewTorusDOR returns dateline dimension-order routing bound to a torus.
func NewTorusDOR(t *Torus) *TorusDOR { return &TorusDOR{t: t} }

func (r *TorusDOR) Name() string    { return "torus-dor" }
func (r *TorusDOR) VCSets() int     { return 2 }
func (r *TorusDOR) Adaptive() bool  { return false }
func (r *TorusDOR) MaxChoices() int { return 1 }

func (r *TorusDOR) Route(router, src, dst, curSet int, buf []Choice) []Choice {
	dr, _ := r.t.RouterOf(dst)
	cx, cy := r.t.Coord(router)
	dx, dy := r.t.Coord(dr)
	w, h := r.t.Width(), r.t.Height()
	c := r.t.LocalPorts()
	if cx != dx {
		dir, crosses := torusStep(cx, dx, w)
		set := curSet
		if crosses {
			set = 1
		}
		if dir > 0 {
			return append(buf, Choice{Port: c + East, VCSet: set})
		}
		return append(buf, Choice{Port: c + West, VCSet: set})
	}
	if cy != dy {
		dir, crosses := torusStep(cy, dy, h)
		// Dimension-order makes x and y channel classes independent,
		// so the turn from x restarts in set 0. A packet already
		// travelling in y (off its source row) keeps its set: one that
		// crossed the y dateline must stay in set 1 to its destination.
		set := curSet
		sr, _ := r.t.RouterOf(src)
		if _, sy := r.t.Coord(sr); cy == sy {
			set = 0
		}
		if crosses {
			set = 1
		}
		if dir > 0 {
			return append(buf, Choice{Port: c + South, VCSet: set})
		}
		return append(buf, Choice{Port: c + North, VCSet: set})
	}
	panic("topology: TorusDOR.Route called at destination router")
}

// torusStep picks the shorter direction from cur to dst around a ring
// of size n and reports whether that hop crosses the dateline: the
// wrap edge between position n-1 and 0 (eastbound) or 0 and n-1
// (westbound).
func torusStep(cur, dst, n int) (dir int, crossesDateline bool) {
	fwd := dst - cur // hops going +1 (east/south)
	if fwd < 0 {
		fwd += n
	}
	bwd := n - fwd
	if fwd != 0 && (fwd < bwd || (fwd == bwd && cur%2 == 0)) {
		// Tie-break by parity so equidistant traffic spreads both ways.
		return +1, cur == n-1
	}
	return -1, cur == 0
}

// Validate explores every (src, dst) terminal pair, following all
// routing choices breadth-first over (router, vcSet) states, and
// returns an error on dead ends, out-of-range VC sets, non-minimal
// hops from a minimal routing function, or failure to converge.
func Validate(t Topology, r Routing) error {
	type state struct{ router, set int }
	for src := 0; src < t.NumTerminals(); src++ {
		for dst := 0; dst < t.NumTerminals(); dst++ {
			sr, _ := t.RouterOf(src)
			dr, _ := t.RouterOf(dst)
			if sr == dr {
				continue
			}
			start := state{sr, 0}
			frontier := []state{start}
			seen := map[state]int{start: 0} // state -> hops when first reached
			for len(frontier) > 0 {
				cur := frontier[0]
				frontier = frontier[1:]
				if cur.router == dr {
					continue
				}
				hops := seen[cur]
				choices := r.Route(cur.router, src, dst, cur.set, nil)
				if len(choices) == 0 {
					return fmt.Errorf("routing %s: no choice at router %d for dst %d", r.Name(), cur.router, dst)
				}
				if len(choices) > r.MaxChoices() {
					return fmt.Errorf("routing %s: %d choices at router %d, MaxChoices %d", r.Name(), len(choices), cur.router, r.MaxChoices())
				}
				for _, ch := range choices {
					if ch.VCSet < 0 || ch.VCSet >= r.VCSets() {
						return fmt.Errorf("routing %s: VC set %d out of range", r.Name(), ch.VCSet)
					}
					nb, _, ok := t.Link(cur.router, ch.Port)
					if !ok {
						return fmt.Errorf("routing %s: router %d port %d unconnected (dst %d)",
							r.Name(), cur.router, ch.Port, dst)
					}
					// Every choice must make progress: minimal routing
					// strictly reduces the remaining distance.
					curDist := t.MinHops(t.TerminalAt(cur.router, 0), dst)
					nbDist := t.MinHops(t.TerminalAt(nb, 0), dst)
					if nbDist >= curDist {
						return fmt.Errorf("routing %s: non-minimal hop %d->%d for src %d dst %d",
							r.Name(), cur.router, nb, src, dst)
					}
					ns := state{nb, ch.VCSet}
					if _, ok := seen[ns]; !ok {
						seen[ns] = hops + 1
						frontier = append(frontier, ns)
					}
				}
			}
		}
	}
	return nil
}
