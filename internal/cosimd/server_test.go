package cosimd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/abstractnet"
	"repro/internal/core"
	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// tinyReq is the test workhorse: a 4-tile run that finishes in ~5k
// cycles, so it spans several 512-cycle slices but completes fast.
// Distinct seeds give distinct digests (no accidental cache hits).
func tinyReq(seed uint64) SubmitRequest {
	return SubmitRequest{
		Workload: "fft", Tiles: 4, Ops: 40, Seed: seed,
		Mode: "reciprocal", Limit: 200_000,
	}
}

// directFingerprint runs the request uninterrupted — no server, no
// slicing, no eviction — and fingerprints the outcome.
func directFingerprint(t *testing.T, req SubmitRequest) string {
	t.Helper()
	req.Normalize()
	cs, err := StdBuilder{}.Build(req)
	if err != nil {
		t.Fatalf("direct build: %v", err)
	}
	defer cs.Close()
	res := cs.Run(sim.Cycle(req.Limit))
	return Fingerprint(cs, res)
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.StateDir == "" {
		opts.StateDir = t.TempDir()
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// newGatedServer is newTestServer with the workers held at their first
// Build (by opts.Builder, when set) until release is called. A fixture whose point is pool pressure
// — more sessions live at once than the resident (and warm) tier holds
// — submits them all and then releases, so the pressure does not depend
// on how fast a session simulates or how the host schedules the submit
// loop against the workers.
func newGatedServer(t *testing.T, opts Options) (srv *Server, release func()) {
	t.Helper()
	gate := make(chan struct{})
	opts.Builder = gateBuilder{gate, opts.Builder}
	srv = newTestServer(t, opts)
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the server's Close, which waits for the workers
	return srv, release
}

func envelope(t *testing.T, srv *Server, id string) ([]byte, ResultEnvelope) {
	t.Helper()
	blob, st, ok := srv.Result(id)
	if !ok || blob == nil {
		t.Fatalf("no result for %s (state %+v)", id, st)
	}
	var env ResultEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatalf("bad envelope for %s: %v", id, err)
	}
	return blob, env
}

// TestEvictResumeFingerprint is the subsystem's core invariant: a
// session that was evicted to a checkpoint and faulted back in (over a
// pool far smaller than the session count) finishes with exactly the
// fingerprint of an uninterrupted run.
func TestEvictResumeFingerprint(t *testing.T) {
	srv, release := newGatedServer(t, Options{
		Workers: 2, MaxResident: 3, SliceCycles: 512,
	})
	const n = 8
	var ids [n]string
	for i := 0; i < n; i++ {
		st, err := srv.Submit(tinyReq(uint64(i + 1)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	release()
	srv.Wait()
	evicted := 0
	for i, id := range ids {
		st, ok := srv.Status(id)
		if !ok || st.State != StateDone {
			t.Fatalf("session %s: %+v", id, st)
		}
		evicted += st.Evictions
		_, env := envelope(t, srv, id)
		if want := directFingerprint(t, tinyReq(uint64(i+1))); env.Fingerprint != want {
			t.Errorf("session %s fingerprint diverged after %d evictions\n got %s\nwant %s",
				id, st.Evictions, env.Fingerprint, want)
		}
		if !env.Result.Finished {
			t.Errorf("session %s did not finish", id)
		}
	}
	if evicted == 0 {
		t.Error("MaxResident=3 with 8 sessions forced no evictions — the test proved nothing")
	}
}

// TestWarmEvictResume: with a warm tier wide enough for the whole
// session population, evictions park the live sessions in memory and
// every fault-in adopts one — fingerprints still match uninterrupted
// runs, no restore touches disk, and no checkpoint file is ever
// written.
func TestWarmEvictResume(t *testing.T) {
	const n = 8
	srv, release := newGatedServer(t, Options{
		Workers: 2, MaxResident: 3, MaxWarm: n, SliceCycles: 512,
	})
	var ids [n]string
	for i := 0; i < n; i++ {
		st, err := srv.Submit(tinyReq(uint64(i + 100)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	release()
	srv.Wait()
	for i, id := range ids {
		_, env := envelope(t, srv, id)
		if want := directFingerprint(t, tinyReq(uint64(i+100))); env.Fingerprint != want {
			t.Errorf("session %s fingerprint diverged\n got %s\nwant %s", id, env.Fingerprint, want)
		}
	}
	stats := srv.Stats()
	if stats.Evictions == 0 || stats.WarmRestores == 0 {
		t.Fatalf("warm tier idle (evictions=%d warm restores=%d) — the test proved nothing",
			stats.Evictions, stats.WarmRestores)
	}
	if stats.WarmRestores != stats.Restores {
		t.Errorf("warm tier large enough for every eviction, yet %d of %d restores hit disk",
			stats.Restores-stats.WarmRestores, stats.Restores)
	}
	// No eviction should have serialized: the warm tier never
	// overflowed, so no checkpoint files exist beside the manifest.
	files, err := filepath.Glob(filepath.Join(srv.StateDir(), "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("warm evictions wrote checkpoint files: %v", files)
	}
}

// TestWarmSpill: a one-slot warm tier forces spills to disk; sessions
// still finish with uninterrupted-run fingerprints after
// warm-park → spill → disk-restore round trips.
func TestWarmSpill(t *testing.T) {
	srv, release := newGatedServer(t, Options{
		Workers: 2, MaxResident: 3, MaxWarm: 1, SliceCycles: 512,
	})
	const n = 8
	var ids [n]string
	for i := 0; i < n; i++ {
		st, err := srv.Submit(tinyReq(uint64(i + 200)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	release()
	srv.Wait()
	for i, id := range ids {
		_, env := envelope(t, srv, id)
		if want := directFingerprint(t, tinyReq(uint64(i+200))); env.Fingerprint != want {
			t.Errorf("session %s fingerprint diverged\n got %s\nwant %s", id, env.Fingerprint, want)
		}
	}
	stats := srv.Stats()
	if stats.Spills == 0 {
		t.Error("MaxWarm=1 under 8-session churn forced no spills — the test proved nothing")
	}
	if stats.WarmRestores == 0 {
		t.Error("no restore was served from the warm tier")
	}
}

// TestCacheByteIdentical: resubmitting a completed config is served
// from the digest-keyed cache — byte-identical envelope, zero
// simulated cycles, no worker time.
func TestCacheByteIdentical(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	st1, err := srv.Submit(tinyReq(7))
	if err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	blob1, _ := envelope(t, srv, st1.ID)

	st2, err := srv.Submit(tinyReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmission not cache-served: %+v", st2)
	}
	if st2.Cycles != 0 {
		t.Errorf("cache hit consumed %d simulated cycles, want 0", st2.Cycles)
	}
	blob2, _ := envelope(t, srv, st2.ID)
	if !bytes.Equal(blob1, blob2) {
		t.Errorf("cache hit not byte-identical:\n%s\nvs\n%s", blob1, blob2)
	}

	stats := srv.Stats()
	if stats.CacheHits != 1 || stats.CacheMiss != 1 {
		t.Errorf("cache accounting: %+v", stats)
	}
	// A different seed is a different digest — no false sharing.
	st3, err := srv.Submit(tinyReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached {
		t.Error("distinct config served from cache")
	}
}

// TestSubmitValidation: every request a worker would reject is
// answered 400 at submit, and creates no session.
func TestSubmitValidation(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, c := range []struct{ body, want string }{
		{`{`, "bad request body"},
		{`{"mode":"warp-drive"}`, "unknown mode"},
		{`{"workload":"quake"}`, "quake"},
		{`{"tiles":-1}`, "must be positive"},
		{`{"routing":"weird"}`, "unknown routing"},
		{`{"mem":"weird"}`, "unknown memory model"},
		{`{"torus":true,"tiles":4}`, "torus"},
		{`{"router":"weird"}`, "deflection router was removed"},
		{`{"router":"deflect"}`, "deflection router was removed"},
		{`{"mode":"abstract","router":"deflect"}`, "deflection router was removed"},
		{`{"mode":"reciprocal-gpu"}`, "mode \"reciprocal-gpu\" was removed"},
	} {
		resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, c.want) {
			t.Errorf("%s: HTTP %d %q, want 400 naming %q", c.body, resp.StatusCode, apiErr.Error, c.want)
		}
	}
	if n := len(srv.Sessions()); n != 0 {
		t.Errorf("rejected submissions left %d sessions", n)
	}
}

// TestDrainRestart: Close drains live sessions to checkpoints and
// writes a manifest; a new server on the same StateDir resumes them to
// completion with uninterrupted-run fingerprints, and re-seeds its
// result cache from the drained table.
func TestDrainRestart(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: complete one session (for the cache), then submit more
	// and close immediately so they drain unfinished.
	srv1 := newTestServer(t, Options{Workers: 2, SliceCycles: 512, StateDir: dir})
	stDone, err := srv1.Submit(tinyReq(1))
	if err != nil {
		t.Fatal(err)
	}
	srv1.Wait()
	doneBlob, _ := envelope(t, srv1, stDone.ID)
	var pending []string
	for i := 2; i <= 5; i++ {
		st, err := srv1.Submit(tinyReq(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, st.ID)
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("no manifest after drain: %v", err)
	}

	// Phase 2: a fresh server on the same StateDir resumes the table.
	srv2 := newTestServer(t, Options{Workers: 2, SliceCycles: 512, StateDir: dir})
	srv2.Wait()
	for i, id := range pending {
		st, ok := srv2.Status(id)
		if !ok || st.State != StateDone {
			t.Fatalf("restored session %s: ok=%v %+v", id, ok, st)
		}
		_, env := envelope(t, srv2, id)
		if want := directFingerprint(t, tinyReq(uint64(i+2))); env.Fingerprint != want {
			t.Errorf("restored session %s fingerprint diverged\n got %s\nwant %s",
				id, env.Fingerprint, want)
		}
	}
	// The completed session's result survived verbatim and re-seeded
	// the cache: a resubmission is served without simulating.
	blob, _, ok := srv2.Result(stDone.ID)
	if !ok || !bytes.Equal(blob, doneBlob) {
		t.Error("completed result did not survive the restart byte-identically")
	}
	st, err := srv2.Submit(tinyReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Error("restarted server did not re-seed the result cache")
	}
}

// TestRestartFailsUnresumableSession: on restart, a drained session
// that cannot be resumed ends failed, naming why, with its flight ring
// dumped, and fails alone: every other drained session resumes to its
// uninterrupted fingerprint. Its manifest entry may ask for a feature
// removed since the drain (the deflection router, the GPU mode), which
// must not run on what replaced it; or its drain checkpoint may be
// damaged on disk, or written by a build whose format version this one
// does not read.
func TestRestartFailsUnresumableSession(t *testing.T) {
	// Each row damages the drained state directory and returns the id
	// of the session it made unresumable.
	type damage func(t *testing.T, dir string, m *manifest) string
	removed := func(edit func(*SubmitRequest)) damage {
		return func(t *testing.T, dir string, m *manifest) string {
			req := tinyReq(9)
			req.Normalize()
			edit(&req)
			const id = "s-removed"
			m.Sessions = append(m.Sessions, manifestSession{
				ID: id, Seq: m.NextSeq, Req: req, Digest: 0x5eed, State: StateRunning,
			})
			m.NextSeq++
			return id
		}
	}
	ckptFile := func(rewrite func([]byte) []byte) damage {
		return func(t *testing.T, dir string, m *manifest) string {
			for _, ms := range m.Sessions {
				if !ms.HasCkpt {
					continue
				}
				path := filepath.Join(dir, ms.ID+".ckpt")
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, rewrite(blob), 0o644); err != nil {
					t.Fatal(err)
				}
				// The drain dumped the ring; the failure must dump it again.
				if err := os.Remove(filepath.Join(dir, ms.ID+".flight.json")); err != nil {
					t.Fatal(err)
				}
				return ms.ID
			}
			t.Fatal("the drain left no session checkpoint to damage")
			return ""
		}
	}
	for _, c := range []struct {
		name   string
		damage damage
		want   string
	}{
		{"router-deflect", removed(func(r *SubmitRequest) { r.Router = "deflect" }), "deflection router was removed"},
		{"mode-reciprocal-gpu", removed(func(r *SubmitRequest) { r.Mode = "reciprocal-gpu" }), "was removed: it ran the same simulation as \"reciprocal\""},
		{"ckpt-truncated", ckptFile(func(b []byte) []byte { return b[:len(b)/2] }), "snapshot: corrupt input: CRC32"},
		{"ckpt-flipped-byte", ckptFile(func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }), "snapshot: corrupt input: CRC32"},
		{"ckpt-v4", ckptFile(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(snapshot.Magic):], 4)
			return b
		}), fmt.Sprintf("snapshot: unsupported format version: checkpoint has format version 4, this build reads version %d", snapshot.FormatVersion)},
	} {
		t.Run(c.name, func(t *testing.T) {
			// One worker runs the first session's first slice, then waits
			// in the second session's build until the drain has begun, so
			// the first session is mid-run when it drains and leaves a
			// checkpoint, however fast the host is.
			dir := t.TempDir()
			hold := newHoldBuilder()
			srv1 := newTestServer(t, Options{Workers: 1, SliceCycles: 512, StateDir: dir, Builder: hold})
			var pending []string
			for i := 2; i <= 4; i++ {
				st, err := srv1.Submit(tinyReq(uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				pending = append(pending, st.ID)
			}
			close(hold.start)
			<-hold.held
			drained := make(chan error, 1)
			go func() { drained <- srv1.Close() }()
			for closed := false; !closed; time.Sleep(time.Millisecond) {
				srv1.mu.Lock()
				closed = srv1.closed
				srv1.mu.Unlock()
			}
			close(hold.gate)
			if err := <-drained; err != nil {
				t.Fatalf("drain: %v", err)
			}

			path := filepath.Join(dir, "manifest.json")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m manifest
			if err := json.Unmarshal(blob, &m); err != nil {
				t.Fatal(err)
			}
			badID := c.damage(t, dir, &m)
			if blob, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}

			srv2 := newTestServer(t, Options{Workers: 2, SliceCycles: 512, StateDir: dir})
			srv2.Wait()
			st, ok := srv2.Status(badID)
			if !ok || st.State != StateFailed || !strings.Contains(st.Error, c.want) {
				t.Errorf("unresumable session after restart: ok=%v %+v, want failed with %q", ok, st, c.want)
			}
			if _, err := os.Stat(filepath.Join(dir, badID+".flight.json")); err != nil {
				t.Errorf("the failed session's flight ring was not dumped: %v", err)
			}
			for i, id := range pending {
				if id == badID {
					continue
				}
				st, ok := srv2.Status(id)
				if !ok || st.State != StateDone {
					t.Fatalf("restored session %s: ok=%v %+v", id, ok, st)
				}
				_, env := envelope(t, srv2, id)
				if want := directFingerprint(t, tinyReq(uint64(i+2))); env.Fingerprint != want {
					t.Errorf("restored session %s fingerprint diverged\n got %s\nwant %s",
						id, env.Fingerprint, want)
				}
			}
		})
	}
}

// TestTornManifestAtRestart: a manifest cut short on disk stops the
// restart — NewServer fails naming it and leaves every file in the
// state directory as it was — and with the whole manifest put back a
// new server resumes every drained session to its uninterrupted
// fingerprint.
func TestTornManifestAtRestart(t *testing.T) {
	// As in TestRestartFailsUnresumableSession, the first session is
	// mid-run when the server drains, so it leaves a checkpoint.
	dir := t.TempDir()
	hold := newHoldBuilder()
	srv1 := newTestServer(t, Options{Workers: 1, SliceCycles: 512, StateDir: dir, Builder: hold})
	var pending []string
	for i := 2; i <= 4; i++ {
		st, err := srv1.Submit(tinyReq(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, st.ID)
	}
	close(hold.start)
	<-hold.held
	drained := make(chan error, 1)
	go func() { drained <- srv1.Close() }()
	for closed := false; !closed; time.Sleep(time.Millisecond) {
		srv1.mu.Lock()
		closed = srv1.closed
		srv1.mu.Unlock()
	}
	close(hold.gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, pending[0]+".ckpt")); err != nil {
		t.Fatalf("the drain left no checkpoint of the running session: %v", err)
	}

	path := filepath.Join(dir, "manifest.json")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range entries {
			blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(blob)
		}
		return out
	}
	before := files()
	if srv, err := NewServer(Options{Workers: 2, SliceCycles: 512, StateDir: dir}); err == nil {
		srv.Close()
		t.Fatal("a server started over a torn manifest")
	} else if !strings.Contains(err.Error(), "cosimd: corrupt manifest") {
		t.Fatalf("torn manifest: %v, want cosimd: corrupt manifest", err)
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Error("the failed restart changed the state directory")
	}

	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := newTestServer(t, Options{Workers: 2, SliceCycles: 512, StateDir: dir})
	srv2.Wait()
	for i, id := range pending {
		if st, ok := srv2.Status(id); !ok || st.State != StateDone {
			t.Fatalf("restored session %s: ok=%v %+v", id, ok, st)
		}
		_, env := envelope(t, srv2, id)
		if want := directFingerprint(t, tinyReq(uint64(i+2))); env.Fingerprint != want {
			t.Errorf("restored session %s fingerprint diverged\n got %s\nwant %s",
				id, env.Fingerprint, want)
		}
	}
}

// TestPanickingSessionFailsAlone: a panic inside one session's slice
// fails that session — with the panic text, a flight dump, its
// simulation dropped and its resident slot released — and the server
// runs every other session to its direct-run fingerprint, leaking no
// goroutine.
func TestPanickingSessionFailsAlone(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	const badSeed = 3
	srv, err := NewServer(Options{Workers: 2, SliceCycles: 512, StateDir: dir, Builder: panicBuilder{seed: badSeed, at: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]string{}
	for seed := uint64(1); seed <= 5; seed++ {
		st, err := srv.Submit(tinyReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids[seed] = st.ID
	}
	srv.Wait()
	bad, ok := srv.Status(ids[badSeed])
	if !ok || bad.State != StateFailed || !strings.Contains(bad.Error, "simulation panicked: test backend panics at cycle") {
		t.Errorf("panicking session: ok=%v %+v, want failed with the panic text", ok, bad)
	}
	if _, err := os.Stat(filepath.Join(dir, ids[badSeed]+".flight.json")); err != nil {
		t.Errorf("the failed session's flight ring was not dumped: %v", err)
	}
	srv.mu.Lock()
	if sess := srv.sessions[ids[badSeed]]; sess.cs != nil || sess.resident || srv.resident != 0 {
		t.Errorf("after the panic the session holds a simulation (%v) or a resident slot (%v); %d resident",
			sess.cs != nil, sess.resident, srv.resident)
	}
	srv.mu.Unlock()
	for seed, id := range ids {
		if seed == badSeed {
			continue
		}
		_, env := envelope(t, srv, id)
		if want := directFingerprint(t, tinyReq(seed)); env.Fingerprint != want {
			t.Errorf("session %s fingerprint diverged\n got %s\nwant %s", id, env.Fingerprint, want)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got := runtime.NumGoroutine()
	for i := 0; i < 500 && got > base; i++ {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base {
		t.Errorf("%d goroutines leaked", got-base)
	}
}

// panicBuilder builds the session with the given seed over a network
// that panics once advanced to cycle at, and every other one as
// StdBuilder does.
type panicBuilder struct {
	seed uint64
	at   sim.Cycle
}

func (b panicBuilder) Digest(req SubmitRequest) (uint64, error) { return StdBuilder{}.Digest(req) }
func (b panicBuilder) Build(req SubmitRequest) (*core.Cosim, error) {
	if req.Seed != b.seed {
		return StdBuilder{}.Build(req)
	}
	wl, err := workload.ByName(req.Workload, req.Tiles, req.Ops, req.Seed)
	if err != nil {
		return nil, err
	}
	m := topology.NewMesh(2, 2, 1)
	net := panicNet{abstractnet.NewNetwork(abstractnet.NewFixed(m, abstractnet.DefaultParams())), b.at}
	return core.Build(fullsys.DefaultConfig(req.Tiles), wl, net, 64)
}

type panicNet struct {
	*abstractnet.Network
	at sim.Cycle
}

func (n panicNet) AdvanceTo(c sim.Cycle) {
	if c >= n.at {
		panic(fmt.Sprintf("test backend panics at cycle %d", c))
	}
	n.Network.AdvanceTo(c)
}

// holdBuilder holds the first Build until start is closed, and every
// later one until gate is closed, announcing on held that one is
// waiting. Closing start once every session is submitted keeps the
// first session from running to completion before the second one is
// ready to be picked.
type holdBuilder struct {
	builds            *atomic.Int32
	start, held, gate chan struct{}
}

func newHoldBuilder() holdBuilder {
	return holdBuilder{builds: new(atomic.Int32), start: make(chan struct{}), held: make(chan struct{}), gate: make(chan struct{})}
}

func (h holdBuilder) Digest(req SubmitRequest) (uint64, error) { return StdBuilder{}.Digest(req) }
func (h holdBuilder) Build(req SubmitRequest) (*core.Cosim, error) {
	if h.builds.Add(1) == 1 {
		<-h.start
	} else {
		select {
		case h.held <- struct{}{}:
		case <-h.gate:
		}
		<-h.gate
	}
	return StdBuilder{}.Build(req)
}

// TestMetricsSnapshot: a session submitted with Metrics gets obs
// registry snapshots; one without stays nil (observability is opt-in).
func TestMetricsSnapshot(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	req := tinyReq(11)
	req.Metrics = true
	st, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := srv.Submit(tinyReq(12))
	if err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	blob, armed, ok := srv.Metrics(st.ID)
	if !ok || !armed || blob == nil {
		t.Fatal("no metrics snapshot for a Metrics session")
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if blob, armed, _ := srv.Metrics(plain.ID); blob != nil || armed {
		t.Error("metrics recorded for a session that did not ask for them")
	}
	// The Metrics knob is excluded from the digest: the plain-config
	// twin of a metrics run is still a cache hit (zero-perturbation
	// observability, proven by the obs subsystem).
	twin := tinyReq(11)
	hit, err := srv.Submit(twin)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("metrics flag changed the config digest")
	}
}

// TestShardedSessionMetrics: a Metrics session with NocWorkers shards
// the NoC sweep and surfaces the shard gauges in its registry
// snapshot; NocWorkers — like Metrics — is a host-speed knob excluded
// from the digest, so the sequential twin is a cache hit and the
// sharded run's fingerprint matches an uninterrupted sequential run.
func TestShardedSessionMetrics(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	req := tinyReq(21)
	req.Metrics = true
	req.NocWorkers = 4
	st, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	blob, armed, ok := srv.Metrics(st.ID)
	if !ok || !armed || blob == nil {
		t.Fatal("no metrics snapshot for a sharded Metrics session")
	}
	if !bytes.Contains(blob, []byte("net.shards")) {
		t.Errorf("shard gauges missing from the metrics snapshot: %s", blob)
	}
	_, env := envelope(t, srv, st.ID)
	if want := directFingerprint(t, tinyReq(21)); env.Fingerprint != want {
		t.Errorf("sharded session diverged from the sequential run\n got %s\nwant %s",
			env.Fingerprint, want)
	}
	twin := tinyReq(21)
	hit, err := srv.Submit(twin)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("noc_workers changed the config digest")
	}
}

// TestShardedSessionSurvivesWarmPark: a session submitted with
// noc_workers: 2 keeps its two shards across park/adopt cycles, and a
// parked session holds no worker pool: however many sessions are
// parked, only resident ones own goroutines, and a drained server owns
// none.
func TestShardedSessionSurvivesWarmPark(t *testing.T) {
	const n, maxResident, nocWorkers = 8, 3, 2
	srv, release := newGatedServer(t, Options{
		Workers: 1, MaxResident: maxResident, MaxWarm: n, SliceCycles: 256,
	})
	base := runtime.NumGoroutine() // the server's own worker included
	settleAt := func(limit int) int {
		got := runtime.NumGoroutine()
		for i := 0; i < 500 && got > limit; i++ {
			time.Sleep(time.Millisecond)
			got = runtime.NumGoroutine()
		}
		return got
	}
	var ids [n]string
	for i := range ids {
		req := tinyReq(uint64(i + 300))
		req.NocWorkers = nocWorkers
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	release()
	shardsOf := func(net any) int {
		return net.(interface{ ShardStats() noc.ShardStats }).ShardStats().Shards
	}
	// A session that is not running is touched by no worker while the
	// lock is held, so its simulation can be inspected.
	adopted, maxParked := 0, 0
	for done := false; !done; time.Sleep(200 * time.Microsecond) {
		srv.mu.Lock()
		done = true
		resident, parked := 0, 0
		for _, sess := range srv.order {
			done = done && sess.finished
			if sess.resident {
				resident++
			}
			if sess.cs != nil && !sess.resident {
				parked++
				if got := shardsOf(sess.cs.Net); got != nocWorkers {
					t.Errorf("parked session %s has %d shards, want %d", sess.id, got, nocWorkers)
				}
			}
			if sess.state == StateReady && sess.resident && sess.restores > 0 {
				adopted++
				if got := shardsOf(sess.cs.Net); got != nocWorkers {
					t.Errorf("session %s runs %d shards after a warm fault-in, want %d", sess.id, got, nocWorkers)
				}
			}
		}
		if parked > maxParked {
			maxParked = parked
			// While the lock is held the one worker stops at the end of
			// its slice and closed pools wind down, so the count settles
			// at one pool per resident session; parked ones add none.
			limit := base + resident*nocWorkers
			if got := settleAt(limit); got > limit {
				t.Errorf("%d goroutines with %d sessions resident and %d parked, want at most %d: parked sessions hold worker pools",
					got, resident, parked, limit)
			}
		}
		srv.mu.Unlock()
	}
	srv.Wait()
	// Between slices one more session than MaxResident is live.
	if adopted == 0 || maxParked < n-maxResident-1 {
		t.Fatalf("saw %d adopted and at most %d parked sessions — the test proved nothing", adopted, maxParked)
	}
	for i, id := range ids {
		_, env := envelope(t, srv, id)
		if want := directFingerprint(t, tinyReq(uint64(i+300))); env.Fingerprint != want {
			t.Errorf("session %s fingerprint diverged\n got %s\nwant %s", id, env.Fingerprint, want)
		}
	}
	if got := settleAt(base); got > base {
		t.Errorf("%d goroutines leaked after every session finished", got-base)
	}
}

// TestHTTPAPI drives the full surface through a real HTTP round trip.
func TestHTTPAPI(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 2, SliceCycles: 512})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		blob, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	decode := func(resp *http.Response, out any) {
		t.Helper()
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}

	// Submit.
	resp := post("/api/v1/sessions", tinyReq(21))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st SessionStatus
	decode(resp, &st)

	// Events: the stream opens with a sync line and closes at the final
	// state (blocks, no polling).
	resp = get("/api/v1/sessions/" + st.ID + "/events")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var last Event
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("events line %d: %v", lines, err)
		}
		if lines == 0 && last.Kind != KindSync {
			t.Errorf("events stream opened with %q, want a sync line", last.Kind)
		}
		lines++
	}
	resp.Body.Close()
	if lines == 0 || last.State != string(StateDone) {
		t.Fatalf("events stream ended after %d lines on %+v", lines, last)
	}

	// Status and list agree.
	decode(get("/api/v1/sessions/"+st.ID), &st)
	if st.State != StateDone {
		t.Fatalf("status after the events stream ended: %+v", st)
	}
	var list []SessionStatus
	decode(get("/api/v1/sessions"), &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list: %+v", list)
	}

	// Result envelope matches the direct fingerprint.
	resp = get("/api/v1/sessions/" + st.ID + "/result")
	var env ResultEnvelope
	decode(resp, &env)
	if want := directFingerprint(t, tinyReq(21)); env.Fingerprint != want {
		t.Errorf("served fingerprint %s, want %s", env.Fingerprint, want)
	}

	// Sweep: 2 workloads × 2 seeds, one point repeating the finished
	// config → one cache hit.
	resp = post("/api/v1/sweeps", SweepRequest{
		Base:      tinyReq(0),
		Workloads: []string{"fft", "radix"},
		Seeds:     []uint64{21, 22},
	})
	var reply SweepReply
	decode(resp, &reply)
	if len(reply.IDs) != 4 || reply.Cached != 1 {
		t.Errorf("sweep reply: %+v", reply)
	}

	// Stats.
	var stats ServerStats
	decode(get("/api/v1/stats"), &stats)
	if stats.Sessions != 5 || stats.Workers != 2 {
		t.Errorf("stats: %+v", stats)
	}

	// Error surfaces.
	if resp := get("/api/v1/sessions/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: HTTP %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post("/api/v1/sessions", SubmitRequest{Mode: "warp-drive"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestDefaultRequestDigest pins the digest of the minimal request `{}`
// and checks that naming the VC router leaves it unchanged.
func TestDefaultRequestDigest(t *testing.T) {
	const want = 0x64887069eb7990c9
	for _, req := range []SubmitRequest{{}, {Router: "vc"}} {
		req.Normalize()
		got, err := StdBuilder{}.Digest(req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("router %q: digest %#x, want %#x", req.Router, got, uint64(want))
		}
	}
}

// TestSubmitAfterClose: a drained server refuses new work instead of
// silently dropping it.
func TestSubmitAfterClose(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(tinyReq(1)); err == nil {
		t.Error("submit on a closed server succeeded")
	}
}
