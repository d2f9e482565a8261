package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/abstractnet"
	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func detailedBackend(t *testing.T) *noc.Network {
	t.Helper()
	m := topology.NewMesh(4, 4, 1)
	net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net
}

func abstractBackend() *abstractnet.Network {
	m := topology.NewMesh(4, 4, 1)
	return abstractnet.NewNetwork(abstractnet.NewFixed(m, abstractnet.DefaultParams()))
}

// TestSenderForEnforcesInjectionOrder proves the documented
// Backend.Inject contract is a checked invariant, not prose: a source
// injecting at a cycle earlier than its previous injection must panic
// under -tags simcheck.
func TestSenderForEnforcesInjectionOrder(t *testing.T) {
	if !sim.Checking {
		t.Skip("injection-order assertion compiles in under -tags simcheck only")
	}
	send := SenderFor(abstractBackend())
	m := fullsys.Msg{Type: fullsys.GetS, Src: 3, Dst: 7}
	send(m, 10)
	send(m, 10)                                              // equal times are allowed
	send(fullsys.Msg{Type: fullsys.GetS, Src: 4, Dst: 7}, 2) // other sources are independent
	defer func() {
		if recover() == nil {
			t.Error("out-of-order injection (cycle 9 after 10) did not panic")
		}
	}()
	send(m, 9)
}

func TestDetailedBackendRoundTrip(t *testing.T) {
	b := detailedBackend(t)
	p := &noc.Packet{Src: 0, Dst: 15, VNet: 0, Size: 5}
	b.Inject(p, 0)
	if b.InFlight() != 1 {
		t.Fatalf("in-flight = %d", b.InFlight())
	}
	b.AdvanceTo(200)
	got := b.Drain()
	if len(got) != 1 || got[0] != p {
		t.Fatalf("drain = %v", got)
	}
	if b.InFlight() != 0 || b.Tracker().Count() != 1 {
		t.Error("accounting wrong after drain")
	}
	if b.Name() != "detailed" {
		t.Errorf("name = %q", b.Name())
	}
}

func TestAbstractBackendRoundTrip(t *testing.T) {
	b := abstractBackend()
	p := &noc.Packet{Src: 0, Dst: 15, VNet: 0, Size: 1}
	b.Inject(p, 5)
	b.AdvanceTo(p.DeliveredAt)
	if got := b.Drain(); len(got) != 1 {
		t.Fatalf("drain = %v", got)
	}
	b.Close()
}

func TestRecorderCapturesTrace(t *testing.T) {
	rec := NewRecorder(abstractBackend())
	rec.Inject(&noc.Packet{Src: 1, Dst: 2, VNet: 0, Size: 5}, 3)
	rec.Inject(&noc.Packet{Src: 2, Dst: 1, VNet: 1, Size: 1}, 7)
	if len(rec.Trace) != 2 {
		t.Fatalf("trace length %d", len(rec.Trace))
	}
	e := rec.Trace[0]
	if e.At != 3 || e.Src != 1 || e.Dst != 2 || e.Size != 5 {
		t.Errorf("entry = %+v", e)
	}
}

func TestReplayDrivesNetwork(t *testing.T) {
	trace := []TraceEntry{
		{At: 0, Src: 0, Dst: 15, VNet: 0, Size: 5},
		{At: 2, Src: 3, Dst: 12, VNet: 1, Size: 1},
		{At: 10, Src: 5, Dst: 6, VNet: 2, Size: 3},
	}
	m := topology.NewMesh(4, 4, 1)
	net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	tr := Replay(trace, net, 10000)
	if tr.Count() != 3 {
		t.Fatalf("replayed %d packets, want 3", tr.Count())
	}
	if !net.Quiescent() {
		t.Error("network did not drain after replay")
	}
}

// scriptedSystem builds a tiny cosim over a scripted workload.
func scriptedSystem(t *testing.T, backend Backend, quantum int, ops [][]fullsys.Op) *Cosim {
	t.Helper()
	cfg := fullsys.DefaultConfig(len(ops))
	cs, err := Build(cfg, fullsys.NewScript(ops), backend, quantum)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestCosimRunsScriptToCompletion(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ops := [][]fullsys.Op{
		{{Kind: fullsys.OpStore, Addr: 64 * 100, Arg: 1}, {Kind: fullsys.OpBarrier, Arg: 1}},
		{{Kind: fullsys.OpBarrier, Arg: 1}, {Kind: fullsys.OpLoad, Addr: 64 * 100}},
		{{Kind: fullsys.OpBarrier, Arg: 1}},
		{{Kind: fullsys.OpBarrier, Arg: 1}},
	}
	cs := scriptedSystem(t, net, 8, ops)
	res := cs.Run(100000)
	if !res.Finished {
		t.Fatalf("script did not finish: %+v", res)
	}
	if res.Packets == 0 {
		t.Error("no network traffic for a cross-tile store/load")
	}
	if res.Mode != "detailed/q8" {
		t.Errorf("mode = %q", res.Mode)
	}
}

// sentLog is a backend that remembers every packet handed to it.
type sentLog struct {
	Backend
	sent []*noc.Packet
}

func (l *sentLog) Inject(p *noc.Packet, at sim.Cycle) {
	l.sent = append(l.sent, p)
	l.Backend.Inject(p, at)
}

func (l *sentLog) State(c *snapshot.Codec, track func(*noc.Packet)) {
	l.Backend.(BackendStater).State(c, track)
}

// TestDecodeRejectsPacketWithoutMessage: a system packet's Kind is its
// message type plus one, so a checkpoint whose in-flight packets carry
// Kind 0, or a Kind past the last type, is corrupt — resumed, a tile
// would be handed a message type no handler knows.
func TestDecodeRejectsPacketWithoutMessage(t *testing.T) {
	ops := make([][]fullsys.Op, 16)
	for i := range ops {
		ops[i] = []fullsys.Op{
			{Kind: fullsys.OpStore, Addr: 64 * uint64(100+i), Arg: uint64(i)},
			{Kind: fullsys.OpLoad, Addr: 64 * uint64(100+(i+1)%len(ops))},
		}
	}
	for _, b := range []struct {
		name string
		make func(*testing.T) Backend
	}{
		{"detailed", func(t *testing.T) Backend { return detailedBackend(t) }},
		{"abstract", func(*testing.T) Backend { return abstractBackend() }},
	} {
		name := b.name
		// Kind 0, and one past the last message type's Kind.
		for _, kind := range []uint8{0, uint8(fullsys.BarRelease) + 2} {
			log := &sentLog{Backend: b.make(t)}
			cs := scriptedSystem(t, log, 8, ops)
			for cs.Net.InFlight() == 0 {
				cs.Step()
			}
			decode := func(blob []byte) error {
				twin := scriptedSystem(t, b.make(t), 8, ops)
				return snapshot.Open(blob, 1, twin.State)
			}
			intact, err := snapshot.Seal(1, cs.State)
			if err != nil {
				t.Fatal(err)
			}
			if err := decode(intact); err != nil {
				t.Fatalf("%s: intact checkpoint rejected: %v", name, err)
			}
			for _, p := range log.sent {
				p.Kind = kind
			}
			blob, err := snapshot.Seal(1, cs.State)
			if err != nil {
				t.Fatal(err)
			}
			if err := decode(blob); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "names no message type") {
				t.Errorf("%s: %d packets in flight with Kind %d decoded with error %v, want the message-type rejection",
					name, cs.Net.InFlight(), kind, err)
			}
		}
	}
}

// TestForkRunsTheRecipe: Fork has no way to build a twin but the
// recorded recipe — without one it refuses; with one it runs it over a
// fresh instance of the workload and restores into what comes back, and
// parent and twin then finish alike.
func TestForkRunsTheRecipe(t *testing.T) {
	ops := [][]fullsys.Op{
		{{Kind: fullsys.OpStore, Addr: 64 * 100, Arg: 7}, {Kind: fullsys.OpBarrier, Arg: 1}, {Kind: fullsys.OpLoad, Addr: 64 * 300}},
		{{Kind: fullsys.OpStore, Addr: 64 * 300, Arg: 9}, {Kind: fullsys.OpBarrier, Arg: 1}, {Kind: fullsys.OpLoad, Addr: 64 * 100}},
	}
	build := func(wl fullsys.Workload) (*Cosim, error) {
		return Build(fullsys.DefaultConfig(len(ops)), wl, abstractBackend(), 1)
	}
	cs, err := build(fullsys.NewScript(ops))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Fork(); err == nil {
		t.Fatal("a co-simulation wired by hand forked without a recipe")
	}
	cs.Recipe = build
	for cs.Net.InFlight() == 0 {
		cs.Step()
	}
	f, err := cs.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.Sys.Workload() == cs.Sys.Workload() {
		t.Fatal("the twin runs its parent's workload instance")
	}
	if f.Cycle() != cs.Cycle() || f.Net.InFlight() != cs.Net.InFlight() {
		t.Fatalf("fork is at cycle %d with %d packets in flight, parent at %d with %d",
			f.Cycle(), f.Net.InFlight(), cs.Cycle(), cs.Net.InFlight())
	}
	want, got := cs.Run(100000), f.Run(100000)
	if !want.Finished || got.Finished != want.Finished || got.ExecCycles != want.ExecCycles ||
		got.Packets != want.Packets || got.Retired != want.Retired {
		t.Errorf("fork finished with %+v, parent with %+v", got, want)
	}
	wl, fwl := cs.Sys.Workload().(*fullsys.Script), f.Sys.Workload().(*fullsys.Script)
	for c := range ops {
		if g, w := fwl.Observed(c), wl.Observed(c); len(g) != 1 || len(w) != 1 || g[0] != w[0] {
			t.Errorf("core %d observed %v in the fork, %v in the parent", c, g, w)
		}
	}
}

func TestCosimRejectsBadQuantum(t *testing.T) {
	if _, err := New(nil, abstractBackend(), 0); err == nil {
		t.Fatal("quantum 0 should be rejected")
	}
}

func TestSenderForMapsMessages(t *testing.T) {
	b := abstractBackend()
	send := SenderFor(b)
	sent := []fullsys.Msg{
		{Type: fullsys.DataM, Line: 0x40, Src: 1, Dst: 2, Value: 7},
		{Type: fullsys.GetS, Line: 0x80, Src: 2, Dst: 1},
	}
	for _, m := range sent {
		send(m, 5)
	}
	if b.InFlight() != 2 {
		t.Fatalf("in-flight = %d", b.InFlight())
	}
	b.AdvanceTo(1000)
	pkts := b.Drain()
	if len(pkts) != 2 {
		t.Fatalf("drained %d", len(pkts))
	}
	for _, p := range pkts {
		msg := unpack(p)
		if msg != sent[0] && msg != sent[1] {
			t.Errorf("packet %+v carries %v, which was not sent", p, msg)
		}
		if p.VNet != msg.Type.VNet() || p.Size != msg.Flits() {
			t.Errorf("mapping wrong: %+v from %v", p, msg)
		}
		if msg.Type == fullsys.DataM && p.Size != 5 {
			t.Errorf("data message should be 5 flits, got %d", p.Size)
		}
	}
}

// A message rides in its packet by value: with the backend's free list
// warm, a send, its delivery and the packet's recycling allocate
// nothing.
func TestSenderForAllocatesNothing(t *testing.T) {
	if sim.Checking {
		t.Skip("simcheck build: the inject-order and queue asserts box their arguments")
	}
	b := abstractBackend()
	send := SenderFor(b)
	at := sim.Cycle(0)
	roundTrip := func() {
		send(fullsys.Msg{Type: fullsys.DataM, Line: 0x40, Src: 1, Dst: 2, Value: 7}, at)
		at += 100
		b.AdvanceTo(at)
		for _, p := range b.Drain() {
			if unpack(p).Value != 7 {
				t.Fatalf("packet %+v lost its message", p)
			}
			b.Recycle(p)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("a message round trip allocates %v times, want 0", allocs)
	}
}

func TestHybridRoutesBySchedule(t *testing.T) {
	det := detailedBackend(t)
	m := topology.NewMesh(4, 4, 1)
	tuned := abstractnet.NewTuned(abstractnet.NewFixed(m, abstractnet.DefaultParams()), 64)
	h, err := NewHybrid(det, tuned, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 10 is in the sample window, cycle 60 is not.
	h.Inject(&noc.Packet{Src: 0, Dst: 15, VNet: 0, Size: 1}, 10)
	h.Inject(&noc.Packet{Src: 1, Dst: 14, VNet: 0, Size: 1}, 60)
	h.AdvanceTo(500)
	got := h.Drain()
	if len(got) != 2 {
		t.Fatalf("drained %d", len(got))
	}
	if h.Tracker().Count() != 2 {
		t.Error("merged tracker incomplete")
	}
	if share := h.DetailedShare(); share != 0.5 {
		t.Errorf("detailed share = %v, want 0.5", share)
	}
	if tuned.Fit().ObservationCount() != 1 {
		t.Errorf("observations = %d, want 1 (only the sampled packet)", tuned.Fit().ObservationCount())
	}
}

func TestHybridRejectsBadSchedule(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	tuned := abstractnet.NewTuned(abstractnet.NewFixed(m, abstractnet.DefaultParams()), 64)
	if _, err := NewHybrid(detailedBackend(t), tuned, 10, 20); err == nil {
		t.Fatal("sample longer than period should be rejected")
	}
	if _, err := NewHybrid(detailedBackend(t), tuned, 10, 0); err == nil {
		t.Fatal("zero sample should be rejected")
	}
}

func TestCalibratedShadowsAndObserves(t *testing.T) {
	det := detailedBackend(t)
	m := topology.NewMesh(4, 4, 1)
	tuned := abstractnet.NewTuned(abstractnet.NewContention(m, abstractnet.DefaultParams()), 256)
	cal, err := NewCalibrated(det, tuned, 32)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := sim.Cycle(0); cyc < 20; cyc++ {
		cal.Inject(&noc.Packet{Src: int(cyc) % 16, Dst: (int(cyc) + 7) % 16, VNet: 0, Size: 5}, cyc)
	}
	var delivered int
	for cyc := sim.Cycle(1); cyc <= 400; cyc++ {
		cal.AdvanceTo(cyc)
		delivered += len(cal.Drain())
	}
	if delivered != 20 {
		t.Fatalf("system saw %d deliveries, want 20", delivered)
	}
	// The shadow network measured the same traffic.
	if cal.Tracker().Count() != 20 {
		t.Fatalf("shadow measured %d packets", cal.Tracker().Count())
	}
	if tuned.Fit().ObservationCount() == 0 {
		t.Error("no calibration observations collected")
	}
	if cal.abstract.Tracker().Count() != 20 {
		t.Error("timing-side stats missing")
	}
	if cal.Name() != "calibrated" {
		t.Errorf("name = %q", cal.Name())
	}
}

func TestCalibratedRejectsBadPeriod(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	tuned := abstractnet.NewTuned(abstractnet.NewFixed(m, abstractnet.DefaultParams()), 64)
	if _, err := NewCalibrated(detailedBackend(t), tuned, 0); err == nil {
		t.Fatal("zero retune period should be rejected")
	}
}

// stuckWorkload never completes: its only op references a line whose
// coherence reply will never arrive because the backend swallows
// everything.
type blackholeBackend struct{ *abstractnet.Network }

func (b blackholeBackend) Drain() []*noc.Packet { return nil }

func TestWatchdogDetectsStall(t *testing.T) {
	ops := [][]fullsys.Op{{{Kind: fullsys.OpLoad, Addr: 64 * 999}}, nil}
	cfg := fullsys.DefaultConfig(2)
	cs, err := Build(cfg, fullsys.NewScript(ops), blackholeBackend{abstractBackend()}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cs.WatchdogQuanta = 50
	res := cs.Run(10_000_000)
	if res.Finished {
		t.Fatal("blackhole network cannot finish")
	}
	if !res.Stalled {
		t.Fatal("watchdog did not fire")
	}
	if res.ExecCycles >= 1_000_000 {
		t.Errorf("watchdog fired too late: %d cycles", res.ExecCycles)
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	trace := []TraceEntry{
		{At: 0, Src: 0, Dst: 15, VNet: 0, Size: 5, Class: 1},
		{At: 2, Src: 3, Dst: 12, VNet: 1, Size: 1},
		{At: 5, Src: 0, Dst: 7, VNet: 0, Size: 3},
	}
	var buf bytes.Buffer
	if err := SaveTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trace) {
		t.Fatalf("length %d != %d", len(got), len(trace))
	}
	for i := range trace {
		if got[i] != trace[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], trace[i])
		}
	}
}

func TestLoadTraceValidation(t *testing.T) {
	cases := map[string]string{
		"zero size":    `{"at":0,"src":0,"dst":1,"vnet":0,"size":0,"class":0}`,
		"out of range": `{"at":0,"src":0,"dst":99,"vnet":0,"size":1,"class":0}`,
		"time reorder": `{"at":5,"src":0,"dst":1,"vnet":0,"size":1,"class":0}` + "\n" + `{"at":2,"src":0,"dst":1,"vnet":0,"size":1,"class":0}`,
		"garbage":      `not json`,
	}
	for name, body := range cases {
		if _, err := LoadTrace(strings.NewReader(body), 16); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Empty trace is fine.
	if got, err := LoadTrace(strings.NewReader(""), 16); err != nil || len(got) != 0 {
		t.Errorf("empty trace: %v %v", got, err)
	}
}

func TestLatencyTableRendersResults(t *testing.T) {
	r := Result{Mode: "demo/q1", Finished: true, ExecCycles: 100, Packets: 5, AvgLatency: 12.5}
	tb := LatencyTable("t", []Result{r})
	if len(tb.Rows) != 1 || tb.Rows[0][0] != "demo/q1" {
		t.Fatalf("rows = %v", tb.Rows)
	}
}
