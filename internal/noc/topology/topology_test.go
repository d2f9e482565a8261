package topology

import "testing"

func TestMeshLinks(t *testing.T) {
	m := NewMesh(4, 3, 1)
	if m.NumRouters() != 12 || m.NumTerminals() != 12 || m.Ports() != 5 {
		t.Fatalf("geometry wrong: %d routers %d terminals %d ports",
			m.NumRouters(), m.NumTerminals(), m.Ports())
	}
	// Interior router 5 = (1,1): all four links present and reciprocal.
	for dir := 0; dir < 4; dir++ {
		nb, nbp, ok := m.Link(5, 1+dir)
		if !ok {
			t.Fatalf("interior router missing link dir %d", dir)
		}
		back, backp, ok := m.Link(nb, nbp)
		if !ok || back != 5 || backp != 1+dir {
			t.Fatalf("link not reciprocal: 5/%d -> %d/%d -> %d/%d", 1+dir, nb, nbp, back, backp)
		}
	}
	// Corner router 0: west and north unconnected.
	if _, _, ok := m.Link(0, 1+West); ok {
		t.Error("corner should have no west link")
	}
	if _, _, ok := m.Link(0, 1+North); ok {
		t.Error("corner should have no north link")
	}
	// Local port never links.
	if _, _, ok := m.Link(0, 0); ok {
		t.Error("local port should not link")
	}
}

func TestMeshMinHops(t *testing.T) {
	m := NewMesh(4, 4, 1)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 15, 6}, {3, 12, 6}, {5, 10, 2},
	}
	for _, c := range cases {
		if got := m.MinHops(c.a, c.b); got != c.want {
			t.Errorf("MinHops(%d,%d)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTorusMinHopsWraps(t *testing.T) {
	tor := NewTorus(4, 4, 1)
	if got := tor.MinHops(0, 3); got != 1 {
		t.Errorf("wraparound x distance: got %d want 1", got)
	}
	if got := tor.MinHops(0, 12); got != 1 {
		t.Errorf("wraparound y distance: got %d want 1", got)
	}
	if got := tor.MinHops(0, 15); got != 2 {
		t.Errorf("corner distance on torus: got %d want 2", got)
	}
}

func TestConcentrationMapping(t *testing.T) {
	m := NewMesh(2, 2, 4)
	if m.NumTerminals() != 16 || m.LocalPorts() != 4 || m.Ports() != 8 {
		t.Fatal("concentrated mesh geometry wrong")
	}
	for term := 0; term < 16; term++ {
		r, p := m.RouterOf(term)
		if m.TerminalAt(r, p) != term {
			t.Fatalf("terminal mapping not invertible for %d", term)
		}
	}
	if m.MinHops(0, 3) != 0 {
		t.Error("terminals on same router should be 0 hops apart")
	}
}

func TestValidateXYAndYX(t *testing.T) {
	m := NewMesh(5, 4, 2)
	if err := Validate(m, NewXY(m)); err != nil {
		t.Errorf("XY: %v", err)
	}
	if err := Validate(m, NewYX(m)); err != nil {
		t.Errorf("YX: %v", err)
	}
}

func TestValidateOddEven(t *testing.T) {
	for _, dim := range []struct{ w, h int }{{4, 4}, {5, 5}, {8, 3}} {
		m := NewMesh(dim.w, dim.h, 1)
		if err := Validate(m, NewOddEven(m)); err != nil {
			t.Errorf("odd-even %dx%d: %v", dim.w, dim.h, err)
		}
	}
}

// underDeclared is odd-even routing claiming to be single-choice.
type underDeclared struct{ *OddEven }

func (underDeclared) MaxChoices() int { return 1 }

// TestValidateHoldsMaxChoices: a routing function that returns more
// choices than it declares is rejected (routers size their route cache
// by the declaration).
func TestValidateHoldsMaxChoices(t *testing.T) {
	m := NewMesh(4, 4, 1)
	if err := Validate(m, underDeclared{NewOddEven(m)}); err == nil {
		t.Error("odd-even declared as MaxChoices 1 passed validation")
	}
}

func TestOddEvenTurnRules(t *testing.T) {
	// Directly check the turn-model restrictions: no EN/ES turn choice
	// offered in even columns (unless at source column), no NW/SW turn
	// in odd columns.
	m := NewMesh(8, 8, 1)
	r := NewOddEven(m)
	for cur := 0; cur < 64; cur++ {
		cx, _ := m.Coord(cur)
		for src := 0; src < 64; src++ {
			sx, _ := m.Coord(src)
			for dst := 0; dst < 64; dst++ {
				dr, _ := m.RouterOf(dst)
				if dr == cur {
					continue
				}
				dx, _ := m.Coord(dr)
				for _, ch := range r.Route(cur, src, dst, 0, nil) {
					vertical := ch.Port == 1+North || ch.Port == 1+South
					if vertical && dx > cx && cx%2 == 0 && cx != sx {
						t.Fatalf("EN/ES turn offered in even column %d (src %d dst %d)", cx, src, dst)
					}
					if vertical && dx < cx && cx%2 == 1 {
						t.Fatalf("NW/SW-bound vertical move in odd column %d (src %d dst %d)", cx, src, dst)
					}
				}
			}
		}
	}
}

func TestValidateTorusDOR(t *testing.T) {
	for _, dim := range []struct{ w, h int }{{4, 4}, {5, 3}, {8, 1}} {
		tor := NewTorus(dim.w, dim.h, 1)
		if err := Validate(tor, NewTorusDOR(tor)); err != nil {
			t.Errorf("torus-dor %dx%d: %v", dim.w, dim.h, err)
		}
	}
}

func TestTorusDatelineSets(t *testing.T) {
	tor := NewTorus(4, 1, 1)
	r := NewTorusDOR(tor)
	// Route 3 -> 0 eastbound crosses the x dateline at router 3.
	choices := r.Route(3, 3, 0, 0, nil)
	if len(choices) != 1 || choices[0].VCSet != 1 {
		t.Errorf("eastbound dateline crossing must move to VC set 1, got %+v", choices)
	}
	// Route 1 -> 2: no crossing, stays in set 0.
	choices = r.Route(1, 1, 2, 0, nil)
	if len(choices) != 1 || choices[0].VCSet != 0 {
		t.Errorf("non-crossing hop must stay in VC set 0, got %+v", choices)
	}
	// Once in set 1, stay there within the dimension.
	choices = r.Route(1, 3, 2, 1, nil)
	if len(choices) != 1 || choices[0].VCSet != 1 {
		t.Errorf("set-1 packet must remain in set 1, got %+v", choices)
	}
}

func TestRingTopology(t *testing.T) {
	ring := NewRing(8, 1)
	if ring.NumRouters() != 8 || ring.Ports() != 5 {
		t.Fatal("ring geometry wrong")
	}
	if got := ring.MinHops(0, 7); got != 1 {
		t.Errorf("ring wrap distance: got %d want 1", got)
	}
	if err := Validate(ring, NewTorusDOR(ring)); err != nil {
		t.Errorf("ring routing: %v", err)
	}
}

func TestBadGeometriesPanic(t *testing.T) {
	cases := []func(){
		func() { NewMesh(0, 4, 1) },
		func() { NewMesh(4, 0, 1) },
		func() { NewMesh(4, 4, 0) },
		func() { NewTorus(2, 4, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}
