package fullsys

import (
	"testing"

	"repro/internal/sim"
)

// loopback is a test network: fixed-latency, order-preserving
// delivery. It validates the protocol independent of the NoC.
type loopback struct {
	sys     *System
	latency sim.Cycle
	pending []pendingMsg
	head    int
	count   uint64
}

type pendingMsg struct {
	at sim.Cycle
	m  Msg
}

func (lb *loopback) send(m Msg, at sim.Cycle) {
	lb.pending = append(lb.pending, pendingMsg{at: at + lb.latency, m: m})
	lb.count++
}

// deliverDue hands over messages due at or before now. Messages are
// kept in send order; fixed latency preserves it.
func (lb *loopback) deliverDue(now sim.Cycle) {
	// Fixed latency means due messages form a prefix in send order.
	for lb.head < len(lb.pending) && lb.pending[lb.head].at <= now {
		p := lb.pending[lb.head]
		lb.pending[lb.head] = pendingMsg{}
		lb.head++
		lb.sys.Deliver(p.m, p.at)
	}
	if lb.head == len(lb.pending) {
		lb.pending = lb.pending[:0]
		lb.head = 0
	}
}

// advanceMem moves the memory oracles through cycle now and hands
// their completions back, as the co-simulation coordinator does at
// every boundary of a one-cycle quantum.
func advanceMem(sys *System, ports []MemPort, now sim.Cycle) {
	for _, p := range ports {
		p.Oracle.AdvanceTo(now + 1)
		for _, c := range p.Oracle.Drain() {
			sys.CompleteMem(p.Tile, c)
		}
	}
}

// runSystem builds a system over the workload and runs it to
// completion (or the cycle limit), checking coherence periodically.
func runSystem(t *testing.T, cfg Config, wl Workload, limit int) *System {
	t.Helper()
	lb := &loopback{latency: 10}
	sys, err := New(cfg, wl, lb.send)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lb.sys = sys
	ports := sys.MemPorts()
	for cyc := 0; cyc < limit; cyc++ {
		now := sim.Cycle(cyc)
		sys.Tick(now)
		advanceMem(sys, ports, now)
		lb.deliverDue(now)
		if cyc%64 == 0 {
			if err := sys.CheckCoherence(); err != nil {
				t.Fatalf("cycle %d: %v", cyc, err)
			}
		}
		if sys.Done() {
			if err := sys.CheckCoherence(); err != nil {
				t.Fatalf("final: %v", err)
			}
			return sys
		}
	}
	t.Fatalf("system did not finish within %d cycles", limit)
	return nil
}

func addr(line uint64) uint64 { return line << LineShift }

func TestStoreLoadRoundTripSingleCore(t *testing.T) {
	wl := NewScript([][]Op{{
		{Kind: OpStore, Addr: addr(100), Arg: 0xdead},
		{Kind: OpLoad, Addr: addr(100)}, // forwarded from store buffer
		{Kind: OpCompute, Arg: 200},     // let the store drain
		{Kind: OpLoad, Addr: addr(100)}, // from L1 (M)
	}})
	runSystem(t, DefaultConfig(1), wl, 5000)
	got := wl.Observed(0)
	if len(got) != 2 || got[0] != 0xdead || got[1] != 0xdead {
		t.Fatalf("observed %v, want [0xdead 0xdead]", got)
	}
}

func TestColdLoadReturnsZeroAndExclusive(t *testing.T) {
	wl := NewScript([][]Op{{
		{Kind: OpLoad, Addr: addr(7)},
	}})
	sys := runSystem(t, DefaultConfig(4), wl, 5000)
	if got := wl.Observed(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("cold load observed %v, want [0]", got)
	}
	// MESI: sole reader should hold the line in E.
	if l1, w := &sys.Tile(0).l1, sys.Tile(0).l1.probe(7); w < 0 || l1.stateOf(w) != l1Exclusive {
		t.Fatalf("sole reader should hold E, got way %d", w)
	}
}

func TestProducerConsumer(t *testing.T) {
	// Core 0 stores, both barrier, core 1 loads the stored value.
	wl := NewScript([][]Op{
		{
			{Kind: OpStore, Addr: addr(50), Arg: 777},
			{Kind: OpBarrier, Arg: 1},
		},
		{
			{Kind: OpBarrier, Arg: 1},
			{Kind: OpLoad, Addr: addr(50)},
		},
	})
	runSystem(t, DefaultConfig(2), wl, 20000)
	if got := wl.Observed(1); len(got) != 1 || got[0] != 777 {
		t.Fatalf("consumer observed %v, want [777]", got)
	}
}

func TestSharedReadersThenWriter(t *testing.T) {
	// Cores 1..3 read line 9 (S everywhere), then after a barrier core
	// 0 writes it (invalidations), then everyone reads the new value.
	mk := func(core int) []Op {
		ops := []Op{
			{Kind: OpLoad, Addr: addr(9)},
			{Kind: OpBarrier, Arg: 1},
		}
		if core == 0 {
			ops = append(ops, Op{Kind: OpStore, Addr: addr(9), Arg: 42})
		}
		ops = append(ops,
			Op{Kind: OpBarrier, Arg: 2},
			Op{Kind: OpLoad, Addr: addr(9)},
		)
		return ops
	}
	wl := NewScript([][]Op{mk(0), mk(1), mk(2), mk(3)})
	runSystem(t, DefaultConfig(4), wl, 50000)
	for core := 0; core < 4; core++ {
		got := wl.Observed(core)
		if len(got) != 2 {
			t.Fatalf("core %d observed %v", core, got)
		}
		if got[0] != 0 {
			t.Errorf("core %d first read %d, want 0", core, got[0])
		}
		if got[1] != 42 {
			t.Errorf("core %d second read %d, want 42 (store lost?)", core, got[1])
		}
	}
}

func TestAtomicCounterAllCores(t *testing.T) {
	// The canonical coherence stress: every core atomically increments
	// the same line k times; the final count must be exact.
	const cores, incs = 8, 25
	ops := make([][]Op, cores)
	for c := range ops {
		for i := 0; i < incs; i++ {
			ops[c] = append(ops[c], Op{Kind: OpAtomic, Addr: addr(3), Arg: 1})
		}
		ops[c] = append(ops[c],
			Op{Kind: OpBarrier, Arg: 9},
			Op{Kind: OpLoad, Addr: addr(3)},
		)
	}
	wl := NewScript(ops)
	runSystem(t, DefaultConfig(cores), wl, 300000)
	for c := 0; c < cores; c++ {
		got := wl.Observed(c)
		final := got[len(got)-1]
		if final != cores*incs {
			t.Fatalf("core %d sees final count %d, want %d", c, final, cores*incs)
		}
	}
}

func TestMigratoryOwnership(t *testing.T) {
	// Each core in turn increments the line; barriers force strict
	// alternation so M ownership migrates core to core.
	const cores = 4
	ops := make([][]Op, cores)
	bar := uint64(1)
	for round := 0; round < cores; round++ {
		for c := 0; c < cores; c++ {
			if c == round {
				ops[c] = append(ops[c], Op{Kind: OpAtomic, Addr: addr(5), Arg: 10})
			}
			ops[c] = append(ops[c], Op{Kind: OpBarrier, Arg: bar})
		}
		bar++
	}
	for c := 0; c < cores; c++ {
		ops[c] = append(ops[c], Op{Kind: OpLoad, Addr: addr(5)})
	}
	wl := NewScript(ops)
	runSystem(t, DefaultConfig(cores), wl, 100000)
	for c := 0; c < cores; c++ {
		got := wl.Observed(c)
		if final := got[len(got)-1]; final != 40 {
			t.Fatalf("core %d final %d, want 40", c, final)
		}
	}
}

func TestL1EvictionWritebackPreservesData(t *testing.T) {
	// Write more lines than the L1 holds, then read them all back;
	// dirty victims must round-trip through L2/memory.
	cfg := DefaultConfig(2)
	cfg.L1Sets = 4
	cfg.L1Ways = 2 // 8-line L1
	var ops []Op
	const lines = 64
	for i := uint64(0); i < lines; i++ {
		ops = append(ops, Op{Kind: OpStore, Addr: addr(i), Arg: 1000 + i})
	}
	ops = append(ops, Op{Kind: OpCompute, Arg: 2000}) // drain
	for i := uint64(0); i < lines; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: addr(i)})
	}
	wl := NewScript([][]Op{ops, nil})
	runSystem(t, cfg, wl, 400000)
	got := wl.Observed(0)
	if len(got) != lines {
		t.Fatalf("observed %d loads, want %d", len(got), lines)
	}
	for i := uint64(0); i < lines; i++ {
		if got[i] != 1000+i {
			t.Fatalf("line %d read back %d, want %d", i, got[i], 1000+i)
		}
	}
}

func TestTinyL2VictimBuffer(t *testing.T) {
	// A 4-line L2 bank forces constant dirty evictions; the victim
	// buffer must keep reads consistent with in-flight writebacks.
	cfg := DefaultConfig(2)
	cfg.L2Lines = 4
	cfg.L1Sets = 2
	cfg.L1Ways = 2
	var ops []Op
	const lines = 32
	for i := uint64(0); i < lines; i++ {
		ops = append(ops, Op{Kind: OpStore, Addr: addr(i * 2), Arg: 7000 + i})
	}
	ops = append(ops, Op{Kind: OpCompute, Arg: 4000})
	for i := uint64(0); i < lines; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: addr(i * 2)})
	}
	wl := NewScript([][]Op{ops, nil})
	runSystem(t, cfg, wl, 1000000)
	got := wl.Observed(0)
	for i := uint64(0); i < lines; i++ {
		if got[i] != 7000+i {
			t.Fatalf("line %d read back %d, want %d", i*2, got[i], 7000+i)
		}
	}
}

func TestBarrierReleasesAllCores(t *testing.T) {
	const cores = 16
	ops := make([][]Op, cores)
	for c := range ops {
		ops[c] = []Op{
			{Kind: OpCompute, Arg: uint64(1 + c*17)}, // staggered arrival
			{Kind: OpBarrier, Arg: 4},
			{Kind: OpBarrier, Arg: 5},
		}
	}
	sys := runSystem(t, DefaultConfig(cores), NewScript(ops), 100000)
	for c := 0; c < cores; c++ {
		if sys.Tile(c).Stats().Barriers != 2 {
			t.Errorf("core %d passed %d barriers, want 2", c, sys.Tile(c).Stats().Barriers)
		}
	}
}

func TestFalseSharingStoreInterleave(t *testing.T) {
	// Two cores repeatedly store to the same line (token granularity):
	// SWMR must hold throughout, and the final token must be one of
	// the two stored values.
	ops := [][]Op{nil, nil}
	for i := 0; i < 30; i++ {
		ops[0] = append(ops[0], Op{Kind: OpStore, Addr: addr(11), Arg: 1})
		ops[1] = append(ops[1], Op{Kind: OpStore, Addr: addr(11), Arg: 2})
	}
	for c := range ops {
		ops[c] = append(ops[c],
			Op{Kind: OpBarrier, Arg: 1},
			Op{Kind: OpLoad, Addr: addr(11)})
	}
	wl := NewScript(ops)
	runSystem(t, DefaultConfig(2), wl, 200000)
	v0 := wl.Observed(0)[len(wl.Observed(0))-1]
	v1 := wl.Observed(1)[len(wl.Observed(1))-1]
	if v0 != v1 {
		t.Fatalf("cores disagree after barrier: %d vs %d", v0, v1)
	}
	if v0 != 1 && v0 != 2 {
		t.Fatalf("final token %d is neither store's value", v0)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.StoreBuf = 2
	var ops []Op
	for i := uint64(0); i < 20; i++ {
		// Distinct lines homed remotely so each store takes a while.
		ops = append(ops, Op{Kind: OpStore, Addr: addr(i*2 + 1), Arg: i})
	}
	wl := NewScript([][]Op{ops, nil})
	sys := runSystem(t, cfg, wl, 200000)
	if sys.Tile(0).Stats().SBStall == 0 {
		t.Error("a 2-entry store buffer under 20 remote stores should stall at least once")
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (sim.Cycle, uint64) {
		ops := make([][]Op, 4)
		for c := range ops {
			for i := 0; i < 20; i++ {
				ops[c] = append(ops[c],
					Op{Kind: OpAtomic, Addr: addr(uint64(i % 3)), Arg: 1},
					Op{Kind: OpLoad, Addr: addr(uint64(c*10 + i))},
					Op{Kind: OpStore, Addr: addr(uint64(c*10 + i)), Arg: uint64(i)},
				)
			}
		}
		wl := NewScript(ops)
		sys := runSystem(t, DefaultConfig(4), wl, 400000)
		return sys.FinishCycle(), sys.MsgsSent()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("nondeterministic execution: (%v,%d) vs (%v,%d)", c1, m1, c2, m2)
	}
}

func TestDetailedDRAMModelCorrectness(t *testing.T) {
	// The bank-level memory model must preserve data correctness and
	// produce row-locality statistics.
	cfg := DefaultConfig(4)
	cfg.MemModel = "ddr"
	cfg.L1Sets = 4
	cfg.L1Ways = 2
	cfg.L2Lines = 8 // force constant memory traffic
	var ops []Op
	const lines = 48
	for i := uint64(0); i < lines; i++ {
		ops = append(ops, Op{Kind: OpStore, Addr: addr(i), Arg: 5000 + i})
	}
	ops = append(ops, Op{Kind: OpCompute, Arg: 5000})
	for i := uint64(0); i < lines; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: addr(i)})
	}
	wl := NewScript([][]Op{ops, nil, nil, nil})
	sys := runSystem(t, cfg, wl, 2_000_000)
	got := wl.Observed(0)
	for i := uint64(0); i < lines; i++ {
		if got[i] != 5000+i {
			t.Fatalf("line %d read back %d, want %d", i, got[i], 5000+i)
		}
	}
	st := sys.DRAMStats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Errorf("detailed MC unused: %+v", st)
	}
	if st.AvgLatency <= 0 {
		t.Error("no latency recorded")
	}
}

func TestDRAMSlowerThanGenerousFixed(t *testing.T) {
	// With a generous fixed latency, the detailed model (row conflicts,
	// bank contention) should not be faster end to end for a
	// memory-hostile pattern; this pins the models apart.
	base := DefaultConfig(2)
	base.L1Sets = 2
	base.L1Ways = 2
	base.L2Lines = 4
	base.MemLat = 20 // generous fixed latency
	var ops []Op
	for i := uint64(0); i < 64; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: addr(i * 1024)}) // same bank, new row
	}
	run := func(model string) sim.Cycle {
		cfg := base
		cfg.MemModel = model
		wl := NewScript([][]Op{ops, nil})
		sys := runSystem(t, cfg, wl, 2_000_000)
		return sys.FinishCycle()
	}
	fixed := run("fixed")
	ddr := run("ddr")
	if ddr <= fixed {
		t.Errorf("row-conflict pattern: ddr=%d should exceed generous fixed=%d", ddr, fixed)
	}
}

func TestUnknownMemModelRejected(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemModel = "weird"
	if _, err := New(cfg, NewScript(nil), func(Msg, sim.Cycle) {}); err == nil {
		t.Fatal("unknown memory model should be rejected")
	}
}

func TestPrefetcherCorrectAndCounted(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.PrefetchDegree = 2
	cfg.PrefetchMax = 4
	// A streaming read of sequential lines: prefetches should cover
	// most of them, and every value must still be exact.
	var ops []Op
	const lines = 64
	for i := uint64(0); i < lines; i++ {
		ops = append(ops, Op{Kind: OpStore, Addr: addr(i), Arg: 4000 + i})
	}
	ops = append(ops, Op{Kind: OpCompute, Arg: 3000})
	for i := uint64(0); i < lines; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: addr(i)}, Op{Kind: OpCompute, Arg: 20})
	}
	// A tiny L1 forces the read stream to miss, exercising the
	// prefetcher; values round-trip through L2.
	cfg.L1Sets = 4
	cfg.L1Ways = 2
	wl := NewScript([][]Op{ops, nil})
	sys := runSystem(t, cfg, wl, 1_000_000)
	got := wl.Observed(0)
	for i := uint64(0); i < lines; i++ {
		if got[i] != 4000+i {
			t.Fatalf("line %d read back %d, want %d", i, got[i], 4000+i)
		}
	}
	st := sys.Tile(0).Stats()
	if st.PrefIssued == 0 {
		t.Fatal("prefetcher idle on a streaming pattern")
	}
	if st.PrefUseful == 0 {
		t.Fatal("no useful prefetches on a streaming pattern")
	}
	t.Logf("prefetches issued=%d useful=%d", st.PrefIssued, st.PrefUseful)
}

func TestPrefetcherRandomSoakStillCoherent(t *testing.T) {
	wl := newRandomWorkload(4, 200, 77)
	cfg := DefaultConfig(4)
	cfg.PrefetchDegree = 2
	cfg.L1Sets = 4
	cfg.L1Ways = 2
	sys := runSystem(t, cfg, wl, 3_000_000)
	if len(wl.errs) > 0 {
		t.Fatalf("data errors with prefetching: %s", wl.errs[0])
	}
	var want uint64
	for _, n := range wl.incs {
		want += n
	}
	for c := 0; c < 4; c++ {
		if wl.lastLoad[c] != want {
			t.Fatalf("counter %d != %d with prefetching", wl.lastLoad[c], want)
		}
	}
	if err := sys.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsTable(t *testing.T) {
	wl := NewScript([][]Op{{
		{Kind: OpStore, Addr: addr(1), Arg: 5},
		{Kind: OpLoad, Addr: addr(200)},
	}, nil})
	sys := runSystem(t, DefaultConfig(2), wl, 50000)
	tb := sys.StatsTable("test")
	if len(tb.Rows) < 5 {
		t.Fatalf("stats table too small: %d rows", len(tb.Rows))
	}
	if tb.Rows[0][0] != "retired ops" {
		t.Errorf("first row = %v", tb.Rows[0])
	}
}

func TestMsgsByType(t *testing.T) {
	wl := NewScript([][]Op{{
		{Kind: OpStore, Addr: addr(3), Arg: 9}, // remote home -> GetM
		{Kind: OpLoad, Addr: addr(5)},          // remote home -> GetS
	}, nil})
	sys := runSystem(t, DefaultConfig(2), wl, 50000)
	byType := sys.MsgsByType()
	if byType[GetS] == 0 || byType[GetM] == 0 {
		t.Errorf("request counters missing: %v", byType)
	}
	if byType[DataE]+byType[DataM]+byType[DataS] == 0 {
		t.Errorf("no data responses counted: %v", byType)
	}
	var total uint64
	for _, c := range byType {
		total += c
	}
	if total != sys.MsgsSent() {
		t.Errorf("per-type sum %d != total %d", total, sys.MsgsSent())
	}
}
