package fullsys

import (
	"testing"
	"testing/quick"
)

func TestL1LookupAndLRU(t *testing.T) {
	c := newL1(2, 2) // 4 lines, 2 sets
	// Lines 0 and 2 map to set 0; 1 and 3 to set 1.
	w := c.victim(0)
	c.install(w, 0, l1Shared, 100)
	w = c.victim(2)
	c.install(w, 2, l1Shared, 102)
	// Touch line 0 so line 2 becomes LRU.
	if got := c.lookup(0); got < 0 || c.value[got] != 100 {
		t.Fatalf("lookup(0) = way %d", got)
	}
	v := c.victim(4) // set 0 again; must pick line 2
	if c.line[v] != 2 {
		t.Fatalf("victim picked line %d, want 2 (LRU)", c.line[v])
	}
}

func TestL1VictimSkipsPinned(t *testing.T) {
	c := newL1(1, 2)
	w := c.victim(0)
	c.install(w, 0, l1Shared, 0)
	w = c.victim(1)
	c.install(w, 1, l1Shared, 0)
	c.flags[c.probe(0)] |= l1Pinned
	if v := c.victim(2); c.line[v] != 1 {
		t.Fatalf("victim picked pinned line? got %d", c.line[v])
	}
	c.flags[c.probe(1)] |= l1Pinned
	if v := c.victim(2); v >= 0 {
		t.Fatal("all-pinned set should return nil")
	}
}

func TestL1ProbeDoesNotPerturbLRU(t *testing.T) {
	c := newL1(1, 2)
	c.install(c.victim(0), 0, l1Shared, 0)
	c.install(c.victim(1), 1, l1Shared, 0)
	c.probe(0) // must NOT refresh
	if v := c.victim(2); c.line[v] != 0 {
		t.Fatalf("probe perturbed LRU: victim %d, want 0", c.line[v])
	}
}

func TestL1RequiresPowerOfTwoSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	newL1(3, 2)
}

func TestL1CountState(t *testing.T) {
	c := newL1(2, 2)
	c.install(c.victim(0), 0, l1Modified, 0)
	c.install(c.victim(1), 1, l1Shared, 0)
	if c.countState(l1Modified) != 1 || c.countState(l1Shared) != 1 || c.countState(l1Invalid) != 2 {
		t.Error("state counts wrong")
	}
}

func TestL2EvictionReturnsDirtyVictim(t *testing.T) {
	b := newL2(2)
	b.put(10, 1, true)
	b.put(20, 2, false)
	// Touch 10 so 20 is LRU.
	if b.get(10) == nil {
		t.Fatal("line 10 missing")
	}
	line, _, wb := b.put(30, 3, false)
	if wb {
		t.Fatalf("clean victim should not write back (evicted %d)", line)
	}
	if b.get(20) != nil {
		t.Fatal("line 20 should have been evicted")
	}
	// Now evict dirty line 10 by inserting another.
	if b.get(30) == nil {
		t.Fatal("line 30 missing")
	}
	line, val, wb := b.put(40, 4, false)
	if !wb || line != 10 || val != 1 {
		t.Fatalf("dirty eviction: line=%d val=%d wb=%v", line, val, wb)
	}
}

func TestL2UpdateKeepsDirty(t *testing.T) {
	b := newL2(4)
	b.put(5, 1, true)
	b.put(5, 2, false) // clean update of a dirty line stays dirty
	if l := b.get(5); l == nil || !l.dirty || l.value != 2 {
		t.Fatalf("update lost dirtiness: %+v", l)
	}
	b.drop(5)
	if b.get(5) != nil {
		t.Fatal("drop failed")
	}
}

// Property: the L2 never exceeds capacity, and a line just inserted is
// always present.
func TestL2CapacityProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		b := newL2(8)
		for _, ln := range lines {
			b.put(uint64(ln), uint64(ln), ln%2 == 0)
			if b.lines.n > 8 {
				return false
			}
			if b.get(uint64(ln)) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgClassification(t *testing.T) {
	// Requests on vnet 0, responses on 1, forwards on 2.
	vnets := map[MsgType]int{
		GetS: 0, GetM: 0, PutM: 0, PutE: 0, MemRead: 0, MemWrite: 0, BarArrive: 0,
		FwdGetS: 2, FwdGetM: 2, Inv: 2, BarRelease: 2,
		DataS: 1, DataE: 1, DataM: 1, GrantM: 1, DataWB: 1,
		InvAck: 1, FwdAck: 1, WBAck: 1, MemData: 1, MemWAck: 1,
	}
	for typ, want := range vnets {
		if got := typ.VNet(); got != want {
			t.Errorf("%v vnet = %d, want %d", typ, got, want)
		}
	}
	dataMsgs := map[MsgType]bool{
		PutM: true, DataS: true, DataE: true, DataM: true, DataWB: true,
		MemData: true, MemWrite: true,
		GetS: false, Inv: false, WBAck: false, GrantM: false,
	}
	for typ, want := range dataMsgs {
		m := Msg{Type: typ}
		if got := m.Flits() == 5; got != want {
			t.Errorf("%v flits = %d", typ, m.Flits())
		}
	}
	if GetS.String() != "GetS" || MsgType(200).String() == "" {
		t.Error("message names wrong")
	}
}

func TestHomeOfCoversAllTiles(t *testing.T) {
	cfg := DefaultConfig(7)
	seen := map[int]bool{}
	for line := uint64(0); line < 100; line++ {
		h := cfg.HomeOf(line)
		if h < 0 || h >= 7 {
			t.Fatalf("home %d out of range", h)
		}
		seen[h] = true
	}
	if len(seen) != 7 {
		t.Errorf("interleaving misses tiles: %d/7", len(seen))
	}
}

func TestControllerPlacement(t *testing.T) {
	// Square grids get the four corners.
	cfg := DefaultConfig(16)
	mcs := cfg.controllers()
	want := []int{0, 3, 12, 15}
	if len(mcs) != 4 {
		t.Fatalf("controllers = %v", mcs)
	}
	for i, w := range want {
		if mcs[i] != w {
			t.Fatalf("controllers = %v, want %v", mcs, want)
		}
	}
	// Non-square or tiny systems fall back to tile 0.
	if got := DefaultConfig(3).controllers(); len(got) != 1 || got[0] != 0 {
		t.Errorf("tiny system controllers = %v", got)
	}
	// Explicit placement wins.
	cfg.MemControllers = []int{5}
	if got := cfg.controllers(); len(got) != 1 || got[0] != 5 {
		t.Errorf("explicit controllers = %v", got)
	}
}
