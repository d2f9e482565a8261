package fullsys

import (
	"fmt"

	"repro/internal/dram"
)

// In-memory forking (second tier of the state capture contract; see
// DESIGN.md "Two-tier state capture"). A forked system shares the
// immutable configuration and controller tables with its parent;
// tiles, caches, directory state, queued events, and memory oracles
// are deep-copied. The Sender wiring and memory-claim ownership are
// per-instance: the coordinator composing the fork supplies them.

// Forker is the fork contract of workloads, mirroring the snapshot
// support: ForkWorkload returns an independent deep copy of the
// generator position and RestoreForkWorkload copies a fork's position
// back into the receiver in place.
type Forker interface {
	ForkWorkload() Workload
	RestoreForkWorkload(f Workload)
}

// ForkWorkload returns an independent copy of the script position,
// sharing the immutable op lists (Forker).
func (s *Script) ForkWorkload() Workload {
	f := &Script{
		Ops:      s.Ops,
		pos:      append([]int(nil), s.pos...),
		observed: make([][]uint64, len(s.observed)),
	}
	for i := range s.observed {
		f.observed[i] = append([]uint64(nil), s.observed[i]...)
	}
	return f
}

// RestoreForkWorkload copies f's position into s in place (Forker).
func (s *Script) RestoreForkWorkload(f Workload) {
	src := f.(*Script)
	s.pos = append(s.pos[:0], src.pos...)
	for i := range src.observed {
		s.observed[i] = append(s.observed[i][:0], src.observed[i]...)
	}
}

// Fork returns an independent deep clone of the system wired to send.
// The clone's memory oracles are unclaimed: the coordinator composing
// the fork claims them, exactly as it would after constructing a
// fresh system.
func (s *System) Fork(send Sender) (*System, error) {
	var wl Workload
	if s.wl != nil {
		fw, ok := s.wl.(Forker)
		if !ok {
			return nil, fmt.Errorf("fullsys: workload %T does not support forking", s.wl)
		}
		wl = fw.ForkWorkload()
	}
	f, err := New(s.cfg, wl, send)
	if err != nil {
		return nil, err
	}
	f.copyStateFrom(s)
	return f, nil
}

// SetSender replaces the send callback. Restore paths that rewind
// simulated time use this to install a fresh callback, because the
// simcheck inject-order history lives inside the closure and must
// restart with the restored clock.
func (s *System) SetSender(send Sender) { s.send = send }

// RestoreFork copies f's state into s in place. s keeps its own
// Sender wiring, memory-claim ownership, and oracle objects (state is
// restored into them, so coordinator memory ports stay valid). f is
// left intact for repeated restores.
func (s *System) RestoreFork(f *System) {
	if s.wl != nil {
		s.wl.(Forker).RestoreForkWorkload(f.wl)
	}
	s.copyStateFrom(f)
}

// copyStateFrom deep-copies src's mutable state into s (everything
// except workload, Sender wiring, and claim ownership).
func (s *System) copyStateFrom(src *System) {
	if len(s.tiles) != len(src.tiles) {
		panic("fullsys: fork between differently-sized systems")
	}
	s.events.ForkFrom(&src.events)
	s.now = src.now
	if s.barrier == nil {
		s.barrier = make(map[uint64]int, len(src.barrier))
	} else if len(s.barrier) != 0 {
		clear(s.barrier)
	}
	//simlint:allow maprange map-to-map rebuild; insertion order immaterial
	for id, count := range src.barrier {
		s.barrier[id] = count
	}
	s.msgsSent = src.msgsSent
	s.flitsSent = src.flitsSent
	s.localMsgs = src.localMsgs
	s.msgsByType = src.msgsByType
	for i := range s.tiles {
		s.tiles[i].forkFrom(src.tiles[i])
	}
	s.rederive()
}

// forkFrom deep-copies src's state into t; t keeps its identity, its
// back-pointer to the owning system, and its oracle object.
func (t *Tile) forkFrom(src *Tile) {
	t.coreState = src.coreState
	t.compute = src.compute
	t.curOp = src.curOp
	t.opValid = src.opValid
	t.storeBuf = append(t.storeBuf[:0], src.storeBuf...)
	t.storeTxn = src.storeTxn
	t.l1.forkFrom(src.l1)
	// The per-tile maps are cleared and refilled in place (fork churn
	// reuses the same tiles over and over; most maps are empty or tiny
	// at any instant, and clear keeps the buckets).
	if len(t.mshrs) != 0 {
		clear(t.mshrs)
	}
	if len(src.mshrs) != 0 {
		mshrSlab := make([]mshrEntry, 0, len(src.mshrs))
		//simlint:allow maprange map-to-map rebuild; insertion order immaterial
		for line, e := range src.mshrs {
			mshrSlab = append(mshrSlab, *e)
			t.mshrs[line] = &mshrSlab[len(mshrSlab)-1]
		}
	}
	if len(t.wbBuf) != 0 {
		clear(t.wbBuf)
	}
	//simlint:allow maprange map-to-map rebuild; insertion order immaterial
	for line, e := range src.wbBuf {
		t.wbBuf[line] = e
	}
	if len(t.pendingFwd) != 0 {
		clear(t.pendingFwd)
	}
	//simlint:allow maprange map-to-map rebuild; insertion order immaterial
	for line, msgs := range src.pendingFwd {
		t.pendingFwd[line] = append([]Msg(nil), msgs...)
	}
	t.prefetchOut = src.prefetchOut
	t.stats = src.Stats()
	// Copy-on-write: both parties alias the directory map and
	// materialize (ownDir) on first access through dirLineOf.
	t.dir = src.dir
	t.dirShared = true
	src.dirShared = true
	t.l2.forkFrom(src.l2)
	if len(t.victimBuf) != 0 {
		clear(t.victimBuf)
	}
	if len(src.victimBuf) != 0 {
		vbSlab := make([]vbEntry, 0, len(src.victimBuf))
		//simlint:allow maprange map-to-map rebuild; insertion order immaterial
		for line, e := range src.victimBuf {
			vbSlab = append(vbSlab, *e)
			t.victimBuf[line] = &vbSlab[len(vbSlab)-1]
		}
	}
	if src.mem != nil {
		if t.mem == nil {
			t.mem = make(map[uint64]uint64, len(src.mem))
		} else {
			clear(t.mem)
		}
		//simlint:allow maprange map-to-map rebuild; insertion order immaterial
		for line, v := range src.mem {
			t.mem[line] = v
		}
	}
	t.mcNextFree = src.mcNextFree
	if src.memOracle != nil {
		of, ok := t.memOracle.(dram.OracleForker)
		if !ok {
			panic(fmt.Sprintf("fullsys: memory oracle %T does not support forking", t.memOracle))
		}
		of.RestoreForkOracle(src.memOracle)
	}
}

// forkFrom aliases src's set arrays copy-on-write: both parties mark
// every set shared and materialize a private copy on first write
// (ownSet), so the fork itself is O(sets) pointer copies — the L1
// arrays are the bulk of a tile's state.
func (c *l1Cache) forkFrom(src *l1Cache) {
	// The equality check skips the pointer store (and its GC write
	// barrier) when the sets already alias — the steady state of fork
	// churn through a shell pool.
	for i := range src.sets {
		if &c.sets[i][0] != &src.sets[i][0] {
			c.sets[i] = src.sets[i]
		}
	}
	if c.shared == nil {
		c.shared = make([]bool, len(c.sets))
	}
	if src.shared == nil {
		src.shared = make([]bool, len(src.sets))
	}
	if c.nshared != len(c.sets) {
		for i := range c.shared {
			c.shared[i] = true
		}
		c.nshared = len(c.sets)
	}
	if src.nshared != len(src.sets) {
		for i := range src.shared {
			src.shared[i] = true
		}
		src.nshared = len(src.sets)
	}
	c.setMask = src.setMask
	c.tick = src.tick
	c.hits = src.hits
	c.misses = src.misses
}

// forkFrom aliases src's lines map copy-on-write: both parties
// materialize (own) before their next mutation.
func (b *l2Bank) forkFrom(src *l2Bank) {
	b.capacity = src.capacity
	b.tick = src.tick
	b.hits = src.hits
	b.misses = src.misses
	b.lines = src.lines
	b.shared = true
	src.shared = true
}
