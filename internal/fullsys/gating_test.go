package fullsys

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// The gated tile sweep against the exhaustive one it replaced
// (System.exhaustive): same workload, same loopback network, stepped
// in lockstep, and required to agree on every checkpoint byte and
// every counter a caller can read — mid-run, while tiles are asleep
// and owe stall cycles, not only at the end. A snapshot→restore is
// taken from the gated run at a moment when tiles sleep, and the
// restored copy continues in lockstep.

// gateCase is one randomly shaped machine and workload.
type gateCase struct {
	seed                                     uint64
	tiles, ops                               int
	l1Sets, l1Ways, l2Lines, storeBuf, pfDeg int
	latency                                  sim.Cycle
	mem                                      string
}

var gateMemModels = [...]string{"fixed", "ddr", "abstract", "calibrated"}

// gateCaseFrom derives a case from two words, so the property test
// (random words) and the fuzzer (mutated words) explore the same space.
// Most machines are small; one in eight crosses the 64-tile word
// boundary of the awake mask.
func gateCaseFrom(seed, shape uint64) gateCase {
	take := func(n uint64) int {
		v := shape % n
		shape /= n
		return int(v)
	}
	c := gateCase{seed: seed}
	c.tiles = 1 + take(9)
	c.ops = 20 + take(60)
	if take(8) == 0 {
		c.tiles = 63 + take(8)
		c.ops = 12 + take(12)
	}
	c.l1Sets = 1 << take(4)
	c.l1Ways = 2 + take(3)
	c.l2Lines = 4 + take(60)
	c.storeBuf = 1 + take(4)
	c.pfDeg = take(4)
	c.latency = sim.Cycle(take(41))
	c.mem = gateMemModels[take(uint64(len(gateMemModels)))]
	return c
}

func (c gateCase) String() string {
	return fmt.Sprintf("seed=%d tiles=%d ops=%d l1=%dx%d l2=%d sb=%d pf=%d lat=%d mem=%s",
		c.seed, c.tiles, c.ops, c.l1Sets, c.l1Ways, c.l2Lines, c.storeBuf, c.pfDeg, c.latency, c.mem)
}

func (c gateCase) config() Config {
	cfg := DefaultConfig(c.tiles)
	cfg.L1Sets, cfg.L1Ways = c.l1Sets, c.l1Ways
	cfg.L2Lines = c.l2Lines
	cfg.StoreBuf = c.storeBuf
	cfg.PrefetchDegree = c.pfDeg
	cfg.MemModel = c.mem
	return cfg
}

// clone deep-copies the generator (it is not part of a checkpoint), so
// a restored system continues the same op streams independently.
func (w *randomWorkload) clone() *randomWorkload {
	f := *w
	f.opsLeft = append([]int(nil), w.opsLeft...)
	f.lastLoad = append([]uint64(nil), w.lastLoad...)
	f.errs = append([]string(nil), w.errs...)
	f.incs = append([]uint64(nil), w.incs...)
	f.loaded = append([]bool(nil), w.loaded...)
	f.rngs = make([]*sim.RNG, len(w.rngs))
	f.private = make([]map[uint64]uint64, len(w.private))
	for c := range w.rngs {
		r := *w.rngs[c]
		f.rngs[c] = &r
		f.private[c] = make(map[uint64]uint64, len(w.private[c]))
		for line, v := range w.private[c] {
			f.private[c][line] = v
		}
	}
	return &f
}

// gateRun is one system with its loopback network and workload.
type gateRun struct {
	sys *System
	lb  *loopback
	wl  *randomWorkload
}

func newGateRun(c gateCase, exhaustive bool) (*gateRun, error) {
	r := &gateRun{lb: &loopback{latency: c.latency}, wl: newRandomWorkload(c.tiles, c.ops, c.seed)}
	sys, err := New(c.config(), r.wl, r.lb.send)
	if err != nil {
		return nil, err
	}
	sys.exhaustive = exhaustive
	r.sys, r.lb.sys = sys, sys
	return r, nil
}

func (r *gateRun) step(now sim.Cycle) {
	r.sys.Tick(now)
	r.lb.deliverDue(now)
}

// sleepers counts running tiles that are out of the sweep.
func (r *gateRun) sleepers() int {
	n := len(r.sys.tiles) - r.sys.halted
	for _, w := range r.sys.awake {
		n -= bits.OnesCount64(w)
	}
	return n
}

// cloneNet copies the in-flight loopback messages for a system that
// continues from r's state.
func (r *gateRun) cloneNet() *loopback {
	return &loopback{
		latency: r.lb.latency,
		pending: append([]pendingMsg(nil), r.lb.pending...),
		head:    r.lb.head,
		count:   r.lb.count,
	}
}

// viaSnapshot continues r's state in a fresh system restored from r's
// checkpoint bytes.
func (r *gateRun) viaSnapshot() (*gateRun, error) {
	f := &gateRun{lb: r.cloneNet(), wl: r.wl.clone()}
	sys, err := New(r.sys.cfg, f.wl, f.lb.send)
	if err != nil {
		return nil, err
	}
	d, err := snapshot.NewDecoder(encodeSystem(r.sys), 0)
	if err != nil {
		return nil, err
	}
	sys.State(d.Codec())
	if err := d.Finish(); err != nil {
		return nil, err
	}
	f.sys, f.lb.sys = sys, sys
	return f, nil
}

func encodeSystem(s *System) []byte {
	e := snapshot.NewEncoder(0)
	s.State(e.Codec())
	return e.Finish()
}

// diffSystems reports the first observable difference between two
// systems: checkpoint bytes, the O(1) totals, the stats table, and
// every tile's counters.
func diffSystems(got, want *System) error {
	if g, w := got.Retired(), want.Retired(); g != w {
		return fmt.Errorf("Retired %d, want %d", g, w)
	}
	if g, w := got.Done(), want.Done(); g != w {
		return fmt.Errorf("Done %v, want %v", g, w)
	}
	if g, w := got.FinishCycle(), want.FinishCycle(); g != w {
		return fmt.Errorf("FinishCycle %v, want %v", g, w)
	}
	for i := range want.tiles {
		if g, w := got.Tile(i).Stats(), want.Tile(i).Stats(); g != w {
			return fmt.Errorf("tile %d stats %+v, want %+v", i, g, w)
		}
	}
	if g, w := got.StatsTable("").String(), want.StatsTable("").String(); g != w {
		return fmt.Errorf("stats table\n%s\nwant\n%s", g, w)
	}
	if !bytes.Equal(encodeSystem(got), encodeSystem(want)) {
		return fmt.Errorf("checkpoint bytes differ")
	}
	return nil
}

const gateCycleLimit = 400_000

// checkGating runs one case and returns how many tiles were asleep at
// the moment the snapshot was taken (so callers can require that the
// interesting situation actually arose).
func checkGating(c gateCase) (asleepAtCapture int, err error) {
	ref, err := newGateRun(c, true)
	if err != nil {
		return 0, err
	}
	gated, err := newGateRun(c, false)
	if err != nil {
		return 0, err
	}
	rng := sim.NewRNG(c.seed, 0x9a7e)
	snapAt := sim.Cycle(1 + rng.Intn(600))
	var restored *gateRun

	for now := sim.Cycle(0); ; now++ {
		if now >= gateCycleLimit {
			return 0, fmt.Errorf("not finished after %d cycles", gateCycleLimit)
		}
		ref.step(now)
		gated.step(now)
		if restored != nil {
			restored.step(now)
		}
		done := ref.sys.Done()

		// Capture at the first cycle past the drawn one with a sleeping
		// tile (or at the end, if none ever sleeps again).
		if restored == nil && now >= snapAt && (gated.sleepers() > 0 || done) {
			asleepAtCapture += gated.sleepers()
			if restored, err = gated.viaSnapshot(); err != nil {
				return 0, err
			}
		}

		if done || rng.Intn(48) == 0 {
			if err := diffSystems(gated.sys, ref.sys); err != nil {
				return 0, fmt.Errorf("cycle %d, gated vs exhaustive: %w", now, err)
			}
			if restored != nil {
				if err := diffSystems(restored.sys, ref.sys); err != nil {
					return 0, fmt.Errorf("cycle %d, restored vs exhaustive: %w", now, err)
				}
			}
		}
		if done {
			break
		}
	}
	for _, r := range []*gateRun{ref, gated, restored} {
		if len(r.wl.errs) > 0 {
			return 0, fmt.Errorf("%d data errors, first: %s", len(r.wl.errs), r.wl.errs[0])
		}
		if err := r.sys.CheckCoherence(); err != nil {
			return 0, err
		}
	}
	return asleepAtCapture, nil
}

func TestGatedTickEqualsExhaustive(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 12
	}
	rng := sim.NewRNG(20260927, 1)
	asleep := 0
	for i := 0; i < cases; i++ {
		c := gateCaseFrom(rng.Uint64(), rng.Uint64())
		n, err := checkGating(c)
		if err != nil {
			t.Fatalf("case %d (%v): %v", i, c, err)
		}
		asleep += n
	}
	if asleep == 0 {
		t.Fatal("no snapshot was ever taken with a tile asleep: the test did not reach the state it exists for")
	}
}

func FuzzTileGating(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(7), uint64(0x9e3779b97f4a7c15))
	f.Fuzz(func(t *testing.T, seed, shape uint64) {
		c := gateCaseFrom(seed, shape)
		if _, err := checkGating(c); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	})
}
