package noc

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// The sharded-stepping property: a sharded gated run must be
// bit-identical to the exhaustive sequential sweep — same fingerprints,
// same checkpoint bytes — for every worker count, on both router
// engines. Run under -race these tests also prove the shard passes
// share no same-cycle state (see `make race-shard`).

var shardWorkerCounts = []int{2, 4, 8, 64}

// TestShardedBitIdentical compares sharded gated runs against the
// exhaustive sequential reference across traffic patterns and worker
// counts (64 exceeds the 36-router mesh, exercising the shard clamp).
func TestShardedBitIdentical(t *testing.T) {
	m := topology.NewMesh(6, 6, 1)
	for _, pattern := range []string{"uniform", "hotspot", "bursty"} {
		exCfg := DefaultConfig()
		exCfg.DisableGating = true
		ex := mustNet(t, exCfg, m, topology.NewXY(m))
		wantFP, wantMid, wantEnd := runGatingLoad(t, ex, pattern)
		for _, w := range shardWorkerCounts {
			t.Run(fmt.Sprintf("%s/w%d", pattern, w), func(t *testing.T) {
				g := mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(w))
				if got := g.ShardStats().Shards; got < 2 {
					t.Fatalf("WithWorkers(%d) built %d shards", w, got)
				}
				gotFP, gotMid, gotEnd := runGatingLoad(t, g, pattern)
				if gotFP != wantFP {
					t.Errorf("sharded run diverged from exhaustive\nexh: %.160s\nshd: %.160s", wantFP, gotFP)
				}
				if !bytes.Equal(gotMid, wantMid) {
					t.Error("mid-run checkpoint bytes differ between sharded and exhaustive runs")
				}
				if !bytes.Equal(gotEnd, wantEnd) {
					t.Error("end-of-run checkpoint bytes differ between sharded and exhaustive runs")
				}
			})
		}
	}
}

// TestDeflectionShardedBitIdentical is the deflection-router twin of
// TestShardedBitIdentical.
func TestDeflectionShardedBitIdentical(t *testing.T) {
	mk := func(t *testing.T, disable bool, opts ...DeflectOption) *Deflection {
		m := topology.NewMesh(6, 6, 1)
		cfg := DefaultDeflectConfig()
		cfg.DisableGating = disable
		n, err := NewDeflection(cfg, m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	for _, pattern := range []string{"uniform", "hotspot", "bursty"} {
		ex := mk(t, true)
		wantFP, wantMid, wantEnd := runDeflGatingLoad(t, ex, pattern)
		for _, w := range shardWorkerCounts {
			t.Run(fmt.Sprintf("%s/w%d", pattern, w), func(t *testing.T) {
				g := mk(t, false, WithDeflectWorkers(w))
				if got := g.ShardStats().Shards; got < 2 {
					t.Fatalf("WithDeflectWorkers(%d) built %d shards", w, got)
				}
				gotFP, gotMid, gotEnd := runDeflGatingLoad(t, g, pattern)
				if gotFP != wantFP {
					t.Errorf("sharded deflection run diverged from exhaustive\nexh: %.160s\nshd: %.160s", wantFP, gotFP)
				}
				if !bytes.Equal(gotMid, wantMid) {
					t.Error("mid-run checkpoint bytes differ between sharded and exhaustive runs")
				}
				if !bytes.Equal(gotEnd, wantEnd) {
					t.Error("end-of-run checkpoint bytes differ between sharded and exhaustive runs")
				}
			})
		}
	}
}

// TestShardedRestoreBitIdentical checks that shard assignment really is
// derived state: a mid-run snapshot taken on a sequential gated network
// restores into a sharded network (and the other way around) with the
// continuation bit-identical to the uninterrupted exhaustive run.
func TestShardedRestoreBitIdentical(t *testing.T) {
	m := topology.NewMesh(5, 5, 1)
	load := func(n *Network) {
		rng := sim.NewRNG(11, 5)
		for cyc := 0; cyc < 40; cyc++ {
			for s := 0; s < 25; s++ {
				if rng.Bernoulli(0.15) {
					d := rng.Intn(24)
					if d >= s {
						d++
					}
					n.Inject(&Packet{Src: s, Dst: d, VNet: rng.Intn(3), Size: 4}, n.Cycle())
				}
			}
			n.Step()
			n.Drain()
		}
	}
	finish := func(t *testing.T, n *Network) string {
		t.Helper()
		var delivered []*Packet
		for i := 0; i < 5000 && !n.Quiescent(); i++ {
			n.Step()
			delivered = append(delivered, n.Drain()...)
		}
		if !n.Quiescent() {
			t.Fatal("network failed to drain")
		}
		return fingerprint(n, delivered)
	}

	exCfg := DefaultConfig()
	exCfg.DisableGating = true
	ref := mustNet(t, exCfg, m, topology.NewXY(m))
	load(ref)
	want := finish(t, ref)

	snapOf := func(n *Network) []byte {
		e := snapshot.NewEncoder(1)
		n.State(e.Codec(), nil, nil)
		return e.Finish()
	}

	// Mid-run state captured on a sequential network and on a sharded
	// one must already serialize to the same bytes.
	seq := mustNet(t, DefaultConfig(), m, topology.NewXY(m))
	load(seq)
	seqBlob := snapOf(seq)
	shd := mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(4))
	load(shd)
	if !bytes.Equal(snapOf(shd), seqBlob) {
		t.Fatal("mid-run snapshot bytes differ between sequential and sharded networks")
	}

	for _, w := range []int{1, 4, 8} {
		n := mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(w))
		d, err := snapshot.NewDecoder(seqBlob, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n.State(d.Codec(), nil, nil); d.Err() != nil {
			t.Fatal(d.Err())
		}
		if got := finish(t, n); got != want {
			t.Errorf("restored run (workers=%d) diverged from uninterrupted exhaustive run", w)
		}
	}
}

// TestShardedSteadyStateZeroAlloc pins the zero-alloc steady state of
// the sharded step path (outboxes, active lists, and swap scratch all
// retain capacity across quanta).
func TestShardedSteadyStateZeroAlloc(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	n := mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(4))
	rng := sim.NewRNG(3, 3)
	quantum := func() {
		base := n.Cycle()
		for s := 0; s < 16; s++ {
			if rng.Bernoulli(0.2) {
				p := n.NewPacket()
				p.Src = s
				p.Dst = (s + 5) % 16
				p.VNet = rng.Intn(3)
				p.Size = 3
				n.Inject(p, base)
			}
		}
		n.AdvanceTo(base + 64)
		for _, p := range n.Drain() {
			n.Recycle(p)
		}
	}
	for i := 0; i < 50; i++ {
		quantum()
	}
	if avg := testing.AllocsPerRun(100, quantum); avg != 0 {
		t.Errorf("sharded steady-state quantum loop allocates %.2f allocs/op, want 0", avg)
	}
}

// TestDeflectionShardedSteadyStateZeroAlloc is the deflection twin.
func TestDeflectionShardedSteadyStateZeroAlloc(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	n, err := NewDeflection(DefaultDeflectConfig(), m, WithDeflectWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	rng := sim.NewRNG(3, 3)
	quantum := func() {
		base := n.Cycle()
		for s := 0; s < 16; s++ {
			if rng.Bernoulli(0.2) {
				p := n.NewPacket()
				p.Src = s
				p.Dst = (s + 5) % 16
				p.Size = 3
				n.Inject(p, base)
			}
		}
		n.AdvanceTo(base + 64)
		for _, p := range n.Drain() {
			n.Recycle(p)
		}
	}
	for i := 0; i < 50; i++ {
		quantum()
	}
	if avg := testing.AllocsPerRun(100, quantum); avg != 0 {
		t.Errorf("sharded deflection steady-state quantum loop allocates %.2f allocs/op, want 0", avg)
	}
}

// TestShardPartition pins the partition width: S = max(1, min(workers,
// R)) shards always exist, for both router engines — the default
// network has exactly one, and a worker count above the router count
// clamps to one router per shard.
func TestShardPartition(t *testing.T) {
	m := topology.NewMesh(3, 3, 1)
	for _, c := range []struct{ workers, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {9, 9}, {10, 9}, {64, 9},
	} {
		n := mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(c.workers))
		if got := n.ShardStats().Shards; got != c.want {
			t.Errorf("WithWorkers(%d) on 9 routers built %d shards, want %d", c.workers, got, c.want)
		}
		d, err := NewDeflection(DefaultDeflectConfig(), m, WithDeflectWorkers(c.workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := d.ShardStats().Shards; got != c.want {
			t.Errorf("WithDeflectWorkers(%d) on 9 routers built %d shards, want %d", c.workers, got, c.want)
		}
	}
	def := mustNet(t, DefaultConfig(), m, topology.NewXY(m))
	if got := def.ShardStats().Shards; got != 1 {
		t.Errorf("default network built %d shards, want exactly 1", got)
	}
}

// goroutinesSettleAt waits for the goroutine count to reach want (a
// closed pool's workers exit asynchronously) and reports the last count.
func goroutinesSettleAt(want int) int {
	got := runtime.NumGoroutine()
	for i := 0; i < 200 && got != want; i++ {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	return got
}

// TestShardedRestoredNetworkHoldsNoGoroutines: a network's worker pool
// starts on its first multi-shard Step — so one that is built and
// restored into but only held (the twin of a forked co-simulation, a
// parked session) owns no goroutines, and Close gives them back.
func TestShardedRestoredNetworkHoldsNoGoroutines(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	// Earlier tests' pools may still be winding down: let the count
	// settle before taking the baseline.
	base := runtime.NumGoroutine()
	for calm := 0; calm < 5; calm++ {
		time.Sleep(time.Millisecond)
		if got := runtime.NumGoroutine(); got != base {
			base, calm = got, 0
		}
	}
	mk := func() (*Network, *Deflection) {
		n := mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(2))
		d, err := NewDeflection(DefaultDeflectConfig(), m, WithDeflectWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		return n, d
	}
	n, d := mk()
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("construction started %d goroutines, want none before the first Step", got-base)
	}
	n.Step()
	d.Step()
	if got := runtime.NumGoroutine(); got != base+4 {
		t.Fatalf("two stepped 2-worker networks hold %d goroutines, want 4", got-base)
	}

	nt, dt := mk()
	type stater func(*snapshot.Codec, snapshot.PayloadCodec, func(*Packet))
	transfer := func(from, to stater) {
		t.Helper()
		e := snapshot.NewEncoder(1)
		from(e.Codec(), nil, nil)
		d, err := snapshot.NewDecoder(e.Finish(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if to(d.Codec(), nil, nil); d.Err() != nil {
			t.Fatal(d.Err())
		}
	}
	transfer(n.State, nt.State)
	transfer(d.State, dt.State)
	if got := runtime.NumGoroutine(); got != base+4 {
		t.Errorf("held restored twins own %d goroutines, want none", got-base-4)
	}
	n.Close()
	d.Close()
	if got := goroutinesSettleAt(base); got != base {
		t.Errorf("%d goroutines left after closing the originals while the twins are held", got-base)
	}
	nt.Step()
	dt.Step()
	if got := runtime.NumGoroutine(); got != base+4 {
		t.Errorf("stepped twins hold %d goroutines, want 4", got-base)
	}
	nt.Close()
	dt.Close()
	if got := goroutinesSettleAt(base); got != base {
		t.Errorf("%d goroutines leaked after Close", got-base)
	}
}

// TestShardStats sanity-checks the shard accounting: a loaded sharded
// run reports every shard busy at some point, boundary traffic (the
// load crosses shard boundaries by construction), and a barrier share
// inside [0, 1].
func TestShardStats(t *testing.T) {
	m := topology.NewMesh(6, 6, 1)
	n := mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(4))
	runGatingLoad(t, n, "uniform")
	st := n.ShardStats()
	if st.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", st.Shards)
	}
	if st.Stepped == 0 {
		t.Fatal("no cycles stepped through the sharded path")
	}
	if ma := st.MeanActiveShards(); ma <= 0 || ma > float64(st.Shards) {
		t.Errorf("MeanActiveShards = %v, want in (0, %d]", ma, st.Shards)
	}
	if st.BoundaryWakes == 0 {
		t.Error("uniform cross-mesh traffic produced no boundary wakes")
	}
	if bs := st.BarrierShare(); bs < 0 || bs > 1 {
		t.Errorf("BarrierShare = %v, want in [0, 1]", bs)
	}
	// The default network is the one-shard case of the same path: it
	// steps, but nothing crosses a boundary and no clock is read.
	one := mustNet(t, DefaultConfig(), m, topology.NewXY(m))
	runGatingLoad(t, one, "uniform")
	if st := one.ShardStats(); st.Shards != 1 || st.Stepped == 0 ||
		st.BoundaryWakes != 0 || st.BusyNanos != 0 || st.StepNanos != 0 {
		t.Errorf("default ShardStats = %+v, want one busy shard with no boundary traffic and no wall time", st)
	}

	d, err := NewDeflection(DefaultDeflectConfig(), m, WithDeflectWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	runDeflGatingLoad(t, d, "uniform")
	dst := d.ShardStats()
	if dst.Shards != 4 || dst.Stepped == 0 || dst.BoundaryWakes == 0 {
		t.Errorf("deflection ShardStats = %+v, want 4 busy shards with boundary traffic", dst)
	}
}

// TestShardedCaptureWithBackloggedNI: the NI's queued count and the wake
// for a packet not yet created are derived state that a capture must
// rebuild, so both captures — snapshot restored into a fresh network,
// snapshot restored over a used one — are taken while NIs hold a
// backlog, a packet mid-serialisation, and (on otherwise idle NIs) only
// future-dated packets, one inside the wake ring's horizon and one
// beyond it. Resumed must equal uninterrupted and re-encode to the
// captured bytes, and the captured network itself must finish the same.
func TestShardedCaptureWithBackloggedNI(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	load := func(n *Network) {
		for s := 0; s < 8; s++ {
			for k := 0; k < 3; k++ {
				for v := 0; v < 3; v++ {
					n.Inject(&Packet{Src: s, Dst: 15 - s, VNet: v, Size: 5}, 0)
				}
			}
		}
		for s := 8; s < 12; s++ {
			n.Inject(&Packet{Src: s, Dst: s - 8, VNet: 1, Size: 2}, 40)
			n.Inject(&Packet{Src: s, Dst: s - 8, VNet: 1, Size: 2}, 40+2*ringHorizon)
		}
		n.Run(7)
	}
	snapOf := func(n *Network) []byte {
		e := snapshot.NewEncoder(1)
		n.State(e.Codec(), nil, nil)
		return e.Finish()
	}
	drain := func(n *Network) (string, bool) {
		var delivered []*Packet
		for i := 0; i < 5000 && !n.Quiescent(); i++ {
			n.Step()
			delivered = append(delivered, n.Drain()...)
		}
		return fingerprint(n, delivered), n.Quiescent()
	}
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			mk := func() *Network { return mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(w)) }
			check := func(what string, n *Network, want string) {
				t.Helper()
				if got, ok := drain(n); !ok {
					t.Errorf("%s never drained: a queued packet was not injected", what)
				} else if got != want {
					t.Errorf("%s diverged from the uninterrupted run", what)
				}
			}
			ref := mk()
			load(ref)
			want, ok := drain(ref)
			if !ok {
				t.Fatal("uninterrupted run failed to drain")
			}

			src := mk()
			load(src)
			var midSer, backlog, futureOnly bool
			for i := range src.ifaces {
				ni := &src.ifaces[i]
				midSer = midSer || ni.cur != nil && ni.curSeq > 0
				backlog = backlog || ni.queued > 1 && ni.queues[0][ni.qHead[0]].CreatedAt <= src.cycle
				futureOnly = futureOnly || ni.cur == nil && ni.queued == 2 && ni.queues[1][ni.qHead[1]].CreatedAt > src.cycle+1
			}
			if !midSer || !backlog || !futureOnly {
				t.Fatalf("capture point has mid-serialisation %v, backlog %v, future-only NI %v: want all three", midSer, backlog, futureOnly)
			}
			blob := snapOf(src)

			used := mk()
			runGatingLoad(t, used, "hotspot")
			load(used)
			for _, c := range []struct {
				what string
				dst  *Network
			}{{"fresh", mk()}, {"used", used}} {
				what, dst := c.what, c.dst
				d, err := snapshot.NewDecoder(blob, 1)
				if err != nil {
					t.Fatal(err)
				}
				if dst.State(d.Codec(), nil, nil); d.Err() != nil {
					t.Fatal(d.Err())
				}
				if !bytes.Equal(snapOf(dst), blob) {
					t.Errorf("snapshot restored into a %s network re-encodes to different bytes", what)
				}
				check("snapshot restored into a "+what+" network", dst, want)
			}

			check("captured network", src, want)
		})
	}
}
