// Package topology defines the interconnect graphs and routing
// functions used by the cycle-level NoC simulator: 2D meshes and tori
// (with optional concentration), rings, dimension-order and adaptive
// routing, and the virtual-channel-set discipline that keeps torus
// routing deadlock-free (dateline scheme).
//
// A topology connects terminals (cores / network interfaces) to
// routers. Port numbering on every router is: ports [0, LocalPorts)
// attach terminals, followed by East, West, North, South in that order
// for grid topologies.
package topology

import "fmt"

// Direction constants give symbolic names to the grid ports that
// follow the local ports on mesh/torus routers.
const (
	East = iota
	West
	North
	South
	numDirs
)

// Topology describes an interconnect graph. Implementations must be
// immutable after construction so they can be shared across networks
// and their workers.
type Topology interface {
	// Name identifies the topology in tables and logs.
	Name() string
	// NumRouters reports the number of routers.
	NumRouters() int
	// NumTerminals reports the number of attached terminals (cores).
	NumTerminals() int
	// RouterOf maps a terminal to its router and local port.
	RouterOf(terminal int) (router, localPort int)
	// TerminalAt maps (router, localPort) back to a terminal id.
	TerminalAt(router, localPort int) int
	// LocalPorts reports the number of terminal ports per router.
	LocalPorts() int
	// Ports reports the total port count per router (local + grid).
	Ports() int
	// Link resolves an output port to the neighbouring router and the
	// input port the link arrives at; ok is false for local ports and
	// unconnected (mesh-edge) ports.
	Link(router, port int) (neighbor, neighborPort int, ok bool)
	// MinHops reports the minimal router-to-router hop count between
	// two terminals (0 when they share a router).
	MinHops(a, b int) int
}

// grid is the shared implementation of Mesh and Torus.
type grid struct {
	name string
	w, h int
	conc int // terminals per router
	wrap bool
	// xs and ys hold every router's grid coordinates, so the routing
	// functions' per-hop Coord calls are loads, not a div and a mod.
	xs, ys []int32
}

func newGrid(name string, w, h, conc int, wrap bool) *grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("topology: invalid grid %dx%d", w, h))
	}
	if conc <= 0 {
		panic("topology: concentration must be >= 1")
	}
	if wrap && (w < 3 || h < 1) {
		// A 2-ary torus dimension degenerates to a doubled mesh link;
		// we require >= 3 so dateline reasoning holds. Height 1 or 2
		// rings in y are allowed only when h == 1 (pure ring).
		if w < 3 {
			panic("topology: torus width must be >= 3")
		}
	}
	g := &grid{name: name, w: w, h: h, conc: conc, wrap: wrap,
		xs: make([]int32, w*h), ys: make([]int32, w*h)}
	for r := range g.xs {
		g.xs[r], g.ys[r] = int32(r%w), int32(r/w)
	}
	return g
}

func (g *grid) Name() string      { return fmt.Sprintf("%s-%dx%dc%d", g.name, g.w, g.h, g.conc) }
func (g *grid) NumRouters() int   { return g.w * g.h }
func (g *grid) NumTerminals() int { return g.w * g.h * g.conc }
func (g *grid) LocalPorts() int   { return g.conc }
func (g *grid) Ports() int        { return g.conc + numDirs }

// Width reports the grid width in routers.
func (g *grid) Width() int { return g.w }

// Height reports the grid height in routers.
func (g *grid) Height() int { return g.h }

// Wrap reports whether the grid has wraparound (torus) links.
func (g *grid) Wrap() bool { return g.wrap }

// Coord reports a router's (x, y) grid coordinates.
func (g *grid) Coord(router int) (x, y int) { return int(g.xs[router]), int(g.ys[router]) }

// RouterAt reports the router at grid coordinates (x, y).
func (g *grid) RouterAt(x, y int) int { return y*g.w + x }

func (g *grid) RouterOf(terminal int) (router, localPort int) {
	if g.conc == 1 {
		return terminal, 0
	}
	return terminal / g.conc, terminal % g.conc
}

func (g *grid) TerminalAt(router, localPort int) int {
	return router*g.conc + localPort
}

func (g *grid) Link(router, port int) (neighbor, neighborPort int, ok bool) {
	if port < g.conc {
		return 0, 0, false
	}
	dir := port - g.conc
	x, y := g.Coord(router)
	nx, ny := x, y
	switch dir {
	case East:
		nx = x + 1
	case West:
		nx = x - 1
	case North:
		ny = y - 1
	case South:
		ny = y + 1
	default:
		return 0, 0, false
	}
	if g.wrap {
		nx = (nx + g.w) % g.w
		ny = (ny + g.h) % g.h
	} else if nx < 0 || nx >= g.w || ny < 0 || ny >= g.h {
		return 0, 0, false
	}
	// A wrapped dimension of size 1 links a router to itself; treat as
	// unconnected since no packet ever needs it.
	if nx == x && ny == y {
		return 0, 0, false
	}
	return g.RouterAt(nx, ny), g.conc + opposite(dir), true
}

func opposite(dir int) int {
	switch dir {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	panic("topology: bad direction")
}

func (g *grid) MinHops(a, b int) int {
	ra, _ := g.RouterOf(a)
	rb, _ := g.RouterOf(b)
	ax, ay := g.Coord(ra)
	bx, by := g.Coord(rb)
	dx := abs(ax - bx)
	dy := abs(ay - by)
	if g.wrap {
		if alt := g.w - dx; alt < dx {
			dx = alt
		}
		if alt := g.h - dy; alt < dy {
			dy = alt
		}
	}
	return dx + dy
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Mesh is a 2D mesh of w×h routers with conc terminals per router.
type Mesh struct{ *grid }

// NewMesh returns a 2D mesh topology.
func NewMesh(w, h, conc int) *Mesh { return &Mesh{newGrid("mesh", w, h, conc, false)} }

// Torus is a 2D torus of w×h routers with conc terminals per router.
type Torus struct{ *grid }

// NewTorus returns a 2D torus topology. Width must be >= 3 so the
// dateline VC discipline is meaningful; height may be 1 (a ring).
func NewTorus(w, h, conc int) *Torus { return &Torus{newGrid("torus", w, h, conc, true)} }

// NewRing returns an n-router ring (a 1-high torus).
func NewRing(n, conc int) *Torus {
	t := &Torus{newGrid("ring", n, 1, conc, true)}
	return t
}
