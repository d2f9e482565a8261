package cosimd

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// metricValue reads one metric out of a /metrics registry snapshot.
func metricValue(t *testing.T, blob []byte, name string) float64 {
	t.Helper()
	var doc struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("metrics snapshot not JSON: %v", err)
	}
	for _, m := range doc.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q missing from the snapshot", name)
	return 0
}

// TestMetricsSurviveEviction: a session's /metrics snapshot covers its
// whole run however often it was evicted — parked and adopted, or
// spilled and rebuilt from a checkpoint. (A regression test: the
// observer used to be rebuilt at every fault-in, so the registry
// covered only the cycles since the last eviction.)
func TestMetricsSurviveEviction(t *testing.T) {
	const n = 6
	run := func(opts Options) (cycles [n]float64, evictions int) {
		srv, release := newGatedServer(t, opts)
		var ids [n]string
		for i := range ids {
			req := tinyReq(uint64(i + 400))
			req.Metrics = true
			st, err := srv.Submit(req)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			ids[i] = st.ID
		}
		release()
		srv.Wait()
		for i, id := range ids {
			st, _ := srv.Status(id)
			if st.State != StateDone {
				t.Fatalf("session %s: %+v", id, st)
			}
			evictions += st.Evictions
			blob, _, _ := srv.Metrics(id)
			cycles[i] = metricValue(t, blob, "cosim.cycles")
			if cycles[i] != float64(st.Cycles) {
				t.Errorf("session %s (%d evictions): metrics cover %v cycles, the session consumed %d",
					id, st.Evictions, cycles[i], st.Cycles)
			}
		}
		return cycles, evictions
	}
	want, evictions := run(Options{Workers: 1, SliceCycles: 512})
	if evictions != 0 {
		t.Fatalf("the unevicted twin was evicted %d times", evictions)
	}
	for _, tier := range []struct {
		name    string
		maxWarm int
	}{{"warm", 8}, {"disk", -1}} {
		t.Run(tier.name, func(t *testing.T) {
			got, evictions := run(Options{Workers: 1, MaxResident: 2, MaxWarm: tier.maxWarm, SliceCycles: 512})
			if evictions == 0 {
				t.Fatal("MaxResident=2 with 6 sessions forced no evictions — the test proved nothing")
			}
			if got != want {
				t.Errorf("cosim.cycles under eviction %v, unevicted %v", got, want)
			}
		})
	}
}

// TestSpilledCheckpointBytes: the checkpoint a parked session is
// spilled to is byte-identical to encoding an uninterrupted in-process
// run of the same request at the same cycle — the simulation that was
// parked, adopted and parked again is the one that would have run
// undisturbed.
func TestSpilledCheckpointBytes(t *testing.T) {
	srv, release := newGatedServer(t, Options{
		Workers: 1, MaxResident: 2, MaxWarm: 1, SliceCycles: 512,
	})
	const n = 6
	reqs := map[string]SubmitRequest{}
	for i := 0; i < n; i++ {
		req := tinyReq(uint64(i + 500))
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs[st.ID] = req
	}
	release()
	// A spilled session that is ready is touched by no worker while the
	// lock is held, and neither is its checkpoint file.
	var (
		req    SubmitRequest
		digest uint64
		cycle  uint64
		blob   []byte
	)
	for blob == nil {
		srv.mu.Lock()
		live := false
		for _, sess := range srv.order {
			live = live || !sess.finished
			if sess.state == StateReady && sess.cs == nil && sess.hasCkpt && !sess.spilling && sess.evictions > 0 {
				var err error
				if blob, err = os.ReadFile(srv.ckptPath(sess.id)); err != nil {
					t.Fatal(err)
				}
				req, digest, cycle = reqs[sess.id], sess.digest, sess.cycle
				break
			}
		}
		srv.mu.Unlock()
		if !live && blob == nil {
			t.Fatal("no session was caught spilled — the test proved nothing")
		}
		time.Sleep(200 * time.Microsecond)
	}
	srv.Wait()

	req.Normalize()
	cs, err := StdBuilder{}.Build(req)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cs.Run(sim.Cycle(cycle))
	if got := uint64(cs.Cycle()); got != cycle {
		t.Fatalf("in-process run stopped at cycle %d, the spill was taken at %d", got, cycle)
	}
	want, err := ckpt.Encode(cs, digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("spilled checkpoint differs from the in-process run's at cycle %d: %d vs %d bytes (first diff at %d)",
			cycle, len(blob), len(want), firstByteDiff(blob, want))
	}
}

// TestDamagedSpillFailsAtFaultIn: a spilled checkpoint damaged on disk
// (one payload byte flipped, the file's length kept) fails its session
// when a worker faults it in, with the CRC error and a flight dump,
// and every other session finishes with its direct-run fingerprint.
// The damaged file is kept as evidence beside the dump: only a session
// that completes removes its checkpoint.
func TestDamagedSpillFailsAtFaultIn(t *testing.T) {
	srv, release := newGatedServer(t, Options{
		Workers: 1, MaxResident: 2, MaxWarm: 1, SliceCycles: 512,
	})
	reqs := map[string]SubmitRequest{}
	for i := 0; i < 6; i++ {
		req := tinyReq(uint64(i + 600))
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs[st.ID] = req
	}
	release()
	// A spilled session that is ready is touched by no worker while the
	// lock is held, and neither is its checkpoint file.
	var (
		badID   string
		damaged []byte
	)
	for badID == "" {
		srv.mu.Lock()
		live := false
		for _, sess := range srv.order {
			live = live || !sess.finished
			if sess.state == StateReady && sess.cs == nil && sess.hasCkpt && !sess.spilling {
				path := srv.ckptPath(sess.id)
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				blob[len(blob)/2] ^= 0x10
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				badID, damaged = sess.id, blob
				break
			}
		}
		srv.mu.Unlock()
		if !live && badID == "" {
			t.Fatal("no session was caught spilled — the test proved nothing")
		}
		time.Sleep(200 * time.Microsecond)
	}
	srv.Wait()

	st, ok := srv.Status(badID)
	if want := "snapshot: corrupt input: CRC32"; !ok || st.State != StateFailed || !strings.Contains(st.Error, want) {
		t.Errorf("damaged spill at fault-in: ok=%v %+v, want failed with %q", ok, st, want)
	}
	if _, err := os.Stat(filepath.Join(srv.opts.StateDir, badID+".flight.json")); err != nil {
		t.Errorf("the failed session's flight ring was not dumped: %v", err)
	}
	if kept, err := os.ReadFile(srv.ckptPath(badID)); err != nil || !bytes.Equal(kept, damaged) {
		t.Errorf("the damaged checkpoint was not kept as it was (err %v)", err)
	}
	for id, req := range reqs {
		if id == badID {
			continue
		}
		st, ok := srv.Status(id)
		if !ok || st.State != StateDone {
			t.Fatalf("session %s: ok=%v %+v", id, ok, st)
		}
		if _, env := envelope(t, srv, id); env.Fingerprint != directFingerprint(t, req) {
			t.Errorf("session %s fingerprint diverged from its direct run", id)
		}
	}
}

// opaqueBackend hides everything but the Backend contract — state
// capture (core.BackendStater) included.
type opaqueBackend struct{ core.Backend }

// opaqueBuilder builds what StdBuilder builds, over an opaqueBackend.
type opaqueBuilder struct{}

func (opaqueBuilder) Digest(req SubmitRequest) (uint64, error) { return StdBuilder{}.Digest(req) }
func (opaqueBuilder) Build(req SubmitRequest) (*core.Cosim, error) {
	cfg, mode, _, err := StdBuilder{}.config(req)
	if err != nil {
		return nil, err
	}
	wl, err := workload.ByName(req.Workload, req.Tiles, req.Ops, req.Seed)
	if err != nil {
		return nil, err
	}
	backend, err := repro.BuildBackend(cfg, mode)
	if err != nil {
		return nil, err
	}
	sysCfg := cfg.System
	sysCfg.Tiles = cfg.Tiles
	return core.Build(sysCfg, wl, opaqueBackend{backend}, repro.ModeQuantum(cfg, mode))
}

// TestParkNeedsNoCaptureSupport: parking asks nothing of the backend
// beyond the Component contract, so a session whose backend cannot be
// snapshotted still parks and is adopted — nothing is copied, nothing
// is written — and finishes with the direct run's fingerprint.
func TestParkNeedsNoCaptureSupport(t *testing.T) {
	const n = 6
	srv, release := newGatedServer(t, Options{
		Workers: 1, MaxResident: 2, MaxWarm: n, SliceCycles: 512, Builder: opaqueBuilder{},
	})
	probeReq := tinyReq(600)
	probeReq.Normalize()
	probe, err := opaqueBuilder{}.Build(probeReq)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := probe.Net.(core.BackendStater); ok {
		t.Fatal("the opaque backend still supports state capture — the test proves nothing")
	}
	probe.Close()

	var ids [n]string
	for i := range ids {
		st, err := srv.Submit(tinyReq(uint64(i + 600)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	release()
	srv.Wait()
	for i, id := range ids {
		_, env := envelope(t, srv, id)
		if want := directFingerprint(t, tinyReq(uint64(i+600))); env.Fingerprint != want {
			t.Errorf("session %s fingerprint diverged\n got %s\nwant %s", id, env.Fingerprint, want)
		}
	}
	stats := srv.Stats()
	if stats.Evictions == 0 || stats.WarmRestores != stats.Restores || stats.Spills != 0 {
		t.Errorf("evictions=%d restores=%d (warm %d) spills=%d: want every eviction parked and adopted, none spilled",
			stats.Evictions, stats.Restores, stats.WarmRestores, stats.Spills)
	}
	files, err := filepath.Glob(filepath.Join(srv.StateDir(), "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("parking wrote checkpoint files: %v", files)
	}
}

// TestSpillThatCannotBeWritten: with a directory standing at every
// session's <id>.ckpt, no spill can be written. Each failed spill keeps
// its session parked, every session still finishes with its direct-run
// fingerprint, no spill is counted, and no temp file is left in the
// state directory however often the spill was retried.
func TestSpillThatCannotBeWritten(t *testing.T) {
	dir := t.TempDir()
	srv, release := newGatedServer(t, Options{
		Workers: 1, MaxResident: 2, MaxWarm: 1, SliceCycles: 512, StateDir: dir,
	})
	reqs := map[string]SubmitRequest{}
	for i := 0; i < 6; i++ {
		req := tinyReq(uint64(950 + i))
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs[st.ID] = req
		if err := os.Mkdir(srv.ckptPath(st.ID), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	release()
	srv.Wait()
	for id, req := range reqs {
		_, env := envelope(t, srv, id)
		if want := directFingerprint(t, req); env.Fingerprint != want {
			t.Errorf("session %s fingerprint diverged\n got %s\nwant %s", id, env.Fingerprint, want)
		}
	}
	st := srv.Stats()
	if st.Spills != 0 || st.Evictions == 0 {
		t.Errorf("spills=%d evictions=%d, want no spill among some evictions", st.Spills, st.Evictions)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("%d temp files left behind by failed spills, e.g. %s", len(tmps), tmps[0])
	}
}
