// Package cosimd is the multi-session co-simulation server: it
// multiplexes many concurrent, independently configured co-simulation
// sessions over a bounded worker pool. It is the service-shaped
// composition of the primitives the rest of the module already
// guarantees:
//
//   - Sessions run in quantum-sized slices (Options.SliceCycles), so a
//     worker is never held longer than one slice and the pool stays
//     responsive however many sessions are live.
//   - A fair-share scheduler (Sched) allocates slices by *simulated*
//     cycles consumed per tenant, with priority aging — see sched.go.
//   - LRU-idle sessions are evicted when the resident population
//     exceeds Options.MaxResident, and are transparently faulted back
//     in at their next dispatch. Eviction is two-tier. A victim is
//     first parked: it keeps the simulation it already holds, with the
//     worker pools stopped (core.Cosim.Close, which the next Step
//     undoes), and is merely counted against Options.MaxWarm instead
//     of MaxResident — a hand-over, not a copy, and adopting it back
//     is bookkeeping. Only when the
//     parked population overflows MaxWarm is the LRU one serialized to
//     a checkpoint file (internal/ckpt) and dropped. Bit-identical
//     resume — stepping after a pool restart, and decode into a
//     rebuilt simulation — is what makes eviction invisible: an
//     evicted-and-resumed session's fingerprint equals an
//     uninterrupted run's.
//   - Completed results are cached by config digest: resubmitting an
//     identical config is served byte-identically from the cache
//     without consuming a worker or a single simulated cycle.
//   - Close drains every live session to a checkpoint and writes a
//     manifest, so a restarted server resumes the same session table.
//
// cosimd is host-side harness code (simlint's host-side list): it uses
// locks and goroutines freely *around* the simulator, while each
// session's simulated state is only ever touched by the one worker
// that holds it.
package cosimd

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/sim"
)

// Options configures a Server.
type Options struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// SliceCycles is the scheduling slice in simulated cycles — the
	// most a session advances per dispatch (default 4096). The slice
	// rounds up to the session's coupling quantum.
	SliceCycles uint64
	// MaxResident bounds resident sessions: the ones that keep their
	// worker pools (a noc_workers > 1 session's shard pool) between
	// dispatches. Beyond it, LRU-idle ready sessions are parked
	// (default 64; minimum Workers+1 is enforced so running sessions
	// always fit).
	MaxResident int
	// MaxWarm bounds the warm tier: parked sessions, which still hold
	// their live simulation in memory but own no goroutines. A warm
	// fault-in takes the session as it is — no copy, no rebuild, no
	// decode. When the tier overflows, its LRU session is written to a
	// ckpt file and its simulation dropped — the only time eviction
	// pays for serialization. MaxResident + MaxWarm is therefore the
	// bound on simulations held in memory. 0 defaults to MaxResident;
	// negative disables the tier (every eviction serializes to disk).
	MaxWarm int
	// StateDir holds checkpoints and the shutdown manifest (default: a
	// fresh temp dir).
	StateDir string
	// Aging is the scheduler's per-tick waiting credit in cycles
	// (default SliceCycles).
	Aging uint64
	// EventsBuffer is the per-subscriber event-queue depth for the
	// /events fan-out (default 256). A subscriber that falls behind its
	// queue loses events (drop-and-count) rather than slowing a worker.
	// Negative disables event streaming entirely.
	EventsBuffer int
	// FlightDepth is the per-session flight-recorder ring size in
	// entries (default 64). The ring holds recent per-quantum samples
	// and lifecycle transitions, served from /flight and dumped to
	// <id>.flight.json on error and drain. Negative disables flight
	// recording.
	FlightDepth int
	// Builder turns requests into co-simulations (default StdBuilder).
	Builder Builder
	// Log, when non-nil, receives one line per server-level event
	// (evictions, restores, failures). Never written under the lock.
	Log io.Writer
}

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.SliceCycles == 0 {
		o.SliceCycles = 4096
	}
	if o.MaxResident <= 0 {
		o.MaxResident = 64
	}
	if o.MaxResident < o.Workers+1 {
		o.MaxResident = o.Workers + 1
	}
	if o.MaxWarm == 0 {
		o.MaxWarm = o.MaxResident
	} else if o.MaxWarm < 0 {
		o.MaxWarm = 0
	}
	if o.Aging == 0 {
		o.Aging = o.SliceCycles
	}
	if o.EventsBuffer == 0 {
		o.EventsBuffer = 256
	}
	if o.FlightDepth == 0 {
		o.FlightDepth = 64
	}
	if o.Builder == nil {
		o.Builder = StdBuilder{}
	}
}

// session is the server-side state of one submitted run.
type session struct {
	id     string
	seq    uint64
	req    SubmitRequest
	digest uint64
	entry  *Entry

	state   State
	hasCkpt bool

	// cs is the live simulation: nil until the first dispatch builds
	// it, and again once it is spilled, finished or failed. Resident,
	// it counts against MaxResident; parked (cs != nil && !resident) it
	// is the same object with its worker pools stopped, counted against
	// MaxWarm. spilling marks a worker mid-write of a parked simulation
	// to disk; the session is off the ready queue for the duration, so
	// nobody steps state that is being encoded.
	cs       *core.Cosim
	resident bool
	spilling bool

	cycle   uint64
	cycles  uint64
	retired uint64

	evictions int
	restores  int
	lastRun   uint64 // scheduler tick of last slice completion (LRU key)

	cached      bool
	finished    bool
	result      []byte
	fingerprint string
	errMsg      string

	metricsJSON []byte

	// sobs is the session's observability-plane state (event hub,
	// flight ring, observer glue). Always non-nil; its hub/flight are
	// nil when the respective option disabled them.
	sobs *sessionObs
}

type cacheEntry struct {
	envelope    []byte
	fingerprint string
	finished    bool
}

// Server owns the session table, scheduler, cache, and worker pool.
type Server struct {
	opts Options

	mu   sync.Mutex
	cond *sync.Cond

	sessions map[string]*session
	order    []*session
	sched    *Sched
	cache    map[uint64]*cacheEntry

	nextSeq      uint64
	resident     int
	warmCount    int
	evictions    uint64
	restores     uint64
	warmRestores uint64
	spills       uint64
	cacheHits    uint64
	cacheMiss    uint64
	closed       bool
	drained      bool
	// running counts the workers between picking a slice and having
	// folded it into tel, so Wait can return with the telemetry
	// settled.
	running int

	// tel is the wall-cost telemetry behind /metrics (its own mutex;
	// see obsplane.go).
	tel telemetry

	wg sync.WaitGroup
}

// NewServer builds and starts a server (its worker pool runs until
// Close). When StateDir contains a manifest from a drained server, the
// previous session table — completed results and checkpointed live
// sessions alike — is restored before the pool starts.
func NewServer(opts Options) (*Server, error) {
	opts.normalize()
	if opts.StateDir == "" {
		dir, err := os.MkdirTemp("", "cosimd-*")
		if err != nil {
			return nil, err
		}
		opts.StateDir = dir
	} else if err := os.MkdirAll(opts.StateDir, 0o777); err != nil {
		return nil, err
	}
	s := &Server{
		opts:     opts,
		sessions: map[string]*session{},
		sched:    NewSched(opts.Aging),
		cache:    map[uint64]*cacheEntry{},
		tel:      telemetry{phases: map[string]wallHist{}},
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, "cosimd: "+format+"\n", args...)
	}
}

// StateDir reports where checkpoints and the manifest live (resolved
// when Options.StateDir was defaulted to a temp dir).
func (s *Server) StateDir() string { return s.opts.StateDir }

func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.opts.StateDir, id+".ckpt")
}

// Submit registers a run and returns its initial status. A digest
// already in the result cache completes the session immediately —
// byte-identical result, zero simulated cycles, no worker consumed.
func (s *Server) Submit(req SubmitRequest) (SessionStatus, error) {
	req.Normalize()
	digest, err := s.opts.Builder.Digest(req)
	if err != nil {
		return SessionStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionStatus{}, fmt.Errorf("cosimd: server is shut down")
	}
	sess := &session{
		id:     fmt.Sprintf("s-%06d", s.nextSeq),
		seq:    s.nextSeq,
		req:    req,
		digest: digest,
	}
	sess.sobs = s.newSessionObs(sess.id, req.Tenant, req.Metrics)
	s.nextSeq++
	if e := s.cache[digest]; e != nil {
		s.cacheHits++
		sess.state = StateDone
		sess.cached = true
		sess.finished = e.finished
		sess.result = e.envelope
		sess.fingerprint = e.fingerprint
		sess.cycle = uint64OfEnvelope(e.envelope)
		sess.sobs.finish(StateDone, sess.cycle, "cache-hit")
	} else {
		s.cacheMiss++
		sess.state = StateReady
		sess.entry = s.sched.Add(req.Tenant, sess.seq, sess)
		s.sched.Ready(sess.entry)
		sess.sobs.transition(FlightSubmit, StateReady, 0, "submitted")
		s.cond.Broadcast()
	}
	s.sessions[sess.id] = sess
	s.order = append(s.order, sess)
	return s.statusLocked(sess), nil
}

// uint64OfEnvelope recovers the final cycle from a cached envelope so
// cache-served sessions report a meaningful Cycle. Best-effort: a
// decode failure just reports 0.
func uint64OfEnvelope(envelope []byte) uint64 {
	var env ResultEnvelope
	if err := json.Unmarshal(envelope, &env); err != nil {
		return 0
	}
	return uint64(env.Result.ExecCycles)
}

// Status returns a session's current status.
func (s *Server) Status(id string) (SessionStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		return SessionStatus{}, false
	}
	return s.statusLocked(sess), true
}

// Sessions lists all sessions in submit order.
func (s *Server) Sessions() []SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionStatus, 0, len(s.order))
	for _, sess := range s.order {
		out = append(out, s.statusLocked(sess))
	}
	return out
}

func (s *Server) statusLocked(sess *session) SessionStatus {
	return SessionStatus{
		ID:        sess.id,
		Tenant:    sess.req.Tenant,
		State:     sess.state,
		Digest:    fmt.Sprintf("%016x", sess.digest),
		Cycle:     uint64(sess.cycle),
		Limit:     sess.req.Limit,
		Cycles:    sess.cycles,
		Retired:   sess.retired,
		Resident:  sess.resident,
		Evictions: sess.evictions,
		Restores:  sess.restores,
		Cached:    sess.cached,
		Finished:  sess.finished,
		Error:     sess.errMsg,
	}
}

// Result returns a completed session's envelope bytes.
func (s *Server) Result(id string) ([]byte, SessionStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		return nil, SessionStatus{}, false
	}
	return sess.result, s.statusLocked(sess), true
}

// Metrics returns a session's latest obs metrics snapshot. ok reports
// whether the session exists; armed reports whether it was submitted
// with metrics enabled. blob is nil until the first slice ran (and
// always, when not armed) — the three return values let the HTTP layer
// distinguish 404 from the two flavors of 409.
func (s *Server) Metrics(id string) (blob []byte, armed, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		return nil, false, false
	}
	return sess.metricsJSON, sess.req.Metrics, true
}

// Events subscribes to a session's event stream. The returned sync
// event is the stream's synthetic first line: the session's state and
// cycle at subscription time plus the hub sequence already published,
// so a reconnecting client can tell what it missed. sub is nil when
// event streaming is disabled (Options.EventsBuffer < 0); ok reports
// whether the session exists.
func (s *Server) Events(id string) (sub *Subscriber, syncEv Event, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		return nil, Event{}, false
	}
	if sess.sobs.hub == nil {
		return nil, Event{}, true
	}
	sub, seq := sess.sobs.hub.Subscribe()
	syncEv = Event{
		Seq:     seq,
		Kind:    KindSync,
		Session: sess.id,
		Tenant:  sess.req.Tenant,
		State:   string(sess.state),
		Cycle:   sess.cycle,
	}
	return sub, syncEv, true
}

// FlightReply is the /flight payload: the session's identity and state
// around its flight-ring dump.
type FlightReply struct {
	Session string `json:"session"`
	Tenant  string `json:"tenant"`
	State   State  `json:"state"`
	FlightDump
}

// Flight snapshots a session's flight ring. armed reports whether
// flight recording is enabled (Options.FlightDepth >= 0); ok reports
// whether the session exists.
func (s *Server) Flight(id string) (reply FlightReply, armed, ok bool) {
	s.mu.Lock()
	sess := s.sessions[id]
	if sess == nil {
		s.mu.Unlock()
		return FlightReply{}, false, false
	}
	reply = FlightReply{Session: sess.id, Tenant: sess.req.Tenant, State: sess.state}
	flight := sess.sobs.flight
	s.mu.Unlock()
	if flight == nil {
		return reply, false, true
	}
	reply.FlightDump = flight.Snapshot()
	return reply, true, true
}

// Stats reports pool-level accounting.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServerStats{
		Sessions:     len(s.order),
		ByState:      map[State]int{},
		Resident:     s.resident,
		Warm:         s.warmCount,
		Workers:      s.opts.Workers,
		Slice:        s.opts.SliceCycles,
		Evictions:    s.evictions,
		Restores:     s.restores,
		WarmRestores: s.warmRestores,
		Spills:       s.spills,
		CacheHits:    s.cacheHits,
		CacheMiss:    s.cacheMiss,
		Tenants:      s.sched.Tenants(),
		Fairness:     s.sched.Fairness(),
	}
	for _, sess := range s.order {
		st.ByState[sess.state]++
		if sess.sobs.hub != nil {
			hs := sess.sobs.hub.Stats()
			st.Obs.Subscribers += hs.Subscribers
			st.Obs.Published += hs.Published
			st.Obs.Dropped += hs.Dropped
		}
		st.Obs.FlightRecords += sess.sobs.flight.Total()
	}
	return st
}

// Wait blocks until every submitted session has reached a final state
// (done or failed) and every worker has folded its last slice into the
// telemetry, so a /metrics scrape after it reads a quiescent server. It
// returns immediately on a drained server.
func (s *Server) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		live := s.running > 0
		for _, sess := range s.order {
			if sess.state != StateDone && sess.state != StateFailed {
				live = true
				break
			}
		}
		if !live {
			return
		}
		s.cond.Wait()
	}
}

// worker is one pool goroutine: pick, run a slice, account, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		var e *Entry
		for !s.closed {
			if e = s.sched.Pick(); e != nil {
				break
			}
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		sess := e.Payload.(*session)
		sess.state = StateRunning
		s.running++
		s.mu.Unlock()

		s.runSliceObserved(sess)

		s.mu.Lock()
		if s.running--; s.running == 0 {
			s.cond.Broadcast()
		}
		s.evictOverflowLocked()
	}
}

// runSlice advances one session by one slice on the calling worker.
// The worker exclusively owns sess.cs between the StateRunning
// transition and the accounting step — no lock is held while the
// simulator steps.
func (s *Server) runSlice(sess *session) {
	if !sess.resident {
		if err := s.faultIn(sess); err != nil {
			s.finishSlice(sess, sess.cycle, sess.retired, 0, nil, "", err)
			return
		}
	}
	start := sess.cs.Cycle()
	target := start + sim.Cycle(s.opts.SliceCycles)
	limit := sim.Cycle(sess.req.Limit)
	if target > limit {
		target = limit
	}
	sess.sobs.beginSlice()
	res, err := run(sess.cs, target)
	consumed := uint64(sess.cs.Cycle() - start)
	cycle, retired := uint64(sess.cs.Cycle()), sess.cs.Sys.Retired()
	if err != nil {
		s.finishSlice(sess, cycle, retired, consumed, nil, "", err)
		return
	}
	sess.metricsJSON = sess.sobs.afterSlice(sess.cs, consumed)
	if res.Finished || res.Stalled || sess.cs.Cycle() >= limit {
		fp := Fingerprint(sess.cs, res)
		env, err := json.Marshal(ResultEnvelope{
			Digest:      fmt.Sprintf("%016x", sess.digest),
			Fingerprint: fp,
			Result:      res,
		})
		s.finishSlice(sess, cycle, retired, consumed, env, fp, err)
		return
	}
	s.finishSlice(sess, cycle, retired, consumed, nil, "", nil)
}

// run advances cs to target. A panic inside the simulation becomes
// the error of its session alone, which then fails with its simulation
// dropped: one session's bug must not end the server.
func run(cs *core.Cosim, target sim.Cycle) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cosimd: simulation panicked: %v", r)
		}
	}()
	return cs.Run(target), nil
}

// finishSlice applies a slice's outcome to the session table. env
// non-nil means the run completed; err non-nil means it failed. cycle
// and retired are the post-slice progress readings, captured by the
// worker while it still owned the simulator.
func (s *Server) finishSlice(sess *session, cycle, retired, consumed uint64, env []byte, fp string, err error) {
	if err != nil && sess.resident {
		sess.cs.Close()
	}
	if env != nil {
		sess.cs.Close()
	}
	if err != nil {
		// Postmortem before the state machine moves on.
		sess.sobs.flight.Record(FlightEntry{
			Cycle: cycle, Kind: FlightFailed, Note: err.Error(),
		})
		s.dumpFlight(sess.sobs, "error")
	}
	s.mu.Lock()
	defer func() {
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	if sess.resident && (env != nil || err != nil) {
		sess.resident = false
		s.resident--
		sess.cs, sess.sobs.cs = nil, nil
	}
	sess.lastRun = s.sched.tick
	sess.cycle, sess.retired = cycle, retired
	sess.cycles += consumed
	switch {
	case err != nil:
		sess.state = StateFailed
		sess.errMsg = err.Error()
		s.sched.Retire(sess.entry, consumed)
		sess.sobs.finish(StateFailed, cycle, err.Error())
		s.logf("session %s failed: %v", sess.id, err)
	case env != nil:
		sess.state = StateDone
		sess.finished = true
		sess.result = env
		sess.fingerprint = fp
		s.sched.Retire(sess.entry, consumed)
		sess.sobs.flight.Record(FlightEntry{
			Cycle: cycle, Kind: FlightDone, Retired: retired,
		})
		sess.sobs.finish(StateDone, cycle, "finished")
		if s.cache[sess.digest] == nil {
			s.cache[sess.digest] = &cacheEntry{envelope: env, fingerprint: fp, finished: true}
		}
		// The on-disk checkpoint is stale once the run completed.
		if sess.hasCkpt {
			os.Remove(s.ckptPath(sess.id))
			sess.hasCkpt = false
		}
	default:
		sess.state = StateReady
		s.sched.Account(sess.entry, consumed)
		s.sched.Ready(sess.entry)
	}
}

// faultIn makes a session's co-simulation live on the calling worker.
// A parked session already holds it: adopting is bookkeeping. Otherwise
// the worker builds from the request; dispatches after a spill
// additionally restore the checkpoint. All three paths continue
// bit-identically.
func (s *Server) faultIn(sess *session) error {
	s.mu.Lock()
	if sess.cs != nil {
		s.warmCount--
		sess.resident = true
		s.resident++
		sess.restores++
		s.restores++
		s.warmRestores++
		s.mu.Unlock()
		sess.sobs.transition(FlightFaultIn, StateRunning, sess.cycle, "warm")
		s.logf("session %s warm-restored at cycle %d", sess.id, sess.cycle)
		return nil
	}
	s.mu.Unlock()
	phase := "build"
	if sess.hasCkpt {
		phase = "faultin_disk"
	}
	done := s.phaseTimer(phase)
	cs, err := s.opts.Builder.Build(sess.req)
	if err != nil {
		return err
	}
	if sess.hasCkpt {
		if err := ckpt.Load(s.ckptPath(sess.id), cs, sess.digest); err != nil {
			cs.Close()
			return err
		}
	}
	sess.sobs.attach(cs)
	done()
	sess.sobs.transition(FlightFaultIn, StateRunning, uint64(cs.Cycle()), phase)
	s.mu.Lock()
	sess.cs = cs
	sess.resident = true
	s.resident++
	if sess.hasCkpt {
		sess.restores++
		s.restores++
	}
	s.mu.Unlock()
	if sess.hasCkpt {
		s.logf("session %s faulted in at cycle %d", sess.id, cs.Cycle())
	}
	return nil
}

// evictOverflowLocked parks LRU-idle ready sessions until the resident
// population fits MaxResident, then spills whatever no longer fits
// MaxWarm. Parking hands the session's simulation over as it is: the
// worker pools stop and the accounting moves from one bound to the
// other. The victim is ready and the lock is held, so no worker owns
// it.
func (s *Server) evictOverflowLocked() {
	for s.resident > s.opts.MaxResident {
		victim := s.lruLocked(true)
		if victim == nil {
			break // everything resident is running; nothing evictable
		}
		done := s.phaseTimer("park_warm")
		victim.cs.Close()
		done()
		victim.resident = false
		victim.evictions++
		s.evictions++
		s.resident--
		s.warmCount++
		victim.sobs.transition(FlightEvict, StateReady, victim.cycle, "warm-park")
	}
	s.spillOverflowLocked()
}

// spillOverflowLocked writes the LRU parked sessions to checkpoint
// files and drops their simulations until the warm tier fits MaxWarm —
// the memory-pressure escape hatch, and the only point where eviction
// serializes. Saves run unlocked with the session flagged spilling:
// off the ready queue, so no worker is dispatched onto it and left
// waiting for the disk, and off the warm count, so a second worker does
// not spill one session too many.
func (s *Server) spillOverflowLocked() {
	for s.warmCount > s.opts.MaxWarm {
		old := s.lruLocked(false)
		if old == nil {
			return // every parked session is being dispatched or spilled right now
		}
		cs := old.cs
		old.spilling = true
		s.sched.Block(old.entry)
		s.warmCount--
		s.mu.Unlock()
		done := s.phaseTimer("spill")
		err := ckpt.Save(s.ckptPath(old.id), cs, old.digest)
		done()
		if err == nil {
			cs.Close()
			old.sobs.transition(FlightSpill, StateReady, old.cycle, "warm tier overflow")
			s.logf("session %s spilled to disk at cycle %d", old.id, old.cycle)
		} else {
			s.logf("spill %s failed: %v", old.id, err)
		}
		s.mu.Lock()
		old.spilling = false
		s.sched.Ready(old.entry)
		s.cond.Broadcast()
		if err != nil {
			// Keep the session parked; spilling is an optimization, not
			// a correctness step.
			s.warmCount++
			return
		}
		old.cs, old.sobs.cs = nil, nil
		old.hasCkpt = true
		s.spills++
	}
}

// lruLocked picks, among the ready sessions holding a simulation on the
// given side of the resident/parked line, the one that ran least
// recently.
func (s *Server) lruLocked(resident bool) *session {
	var victim *session
	for _, sess := range s.order {
		if sess.cs == nil || sess.resident != resident || sess.spilling || sess.state != StateReady {
			continue
		}
		if victim == nil || sess.lastRun < victim.lastRun ||
			(sess.lastRun == victim.lastRun && sess.seq < victim.seq) {
			victim = sess
		}
	}
	return victim
}

// Close shuts the pool down gracefully: stop dispatching, wait out
// in-flight slices, drain every live session to a checkpoint file, and
// write the manifest. A server built later on the same StateDir
// resumes the full session table.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()

	// Workers are gone; only HTTP readers share the lock now. Drain
	// resident and parked sessions to checkpoints.
	s.mu.Lock()
	var firstErr error
	for _, sess := range s.order {
		cs := sess.cs
		if cs == nil {
			continue
		}
		if err := ckpt.Save(s.ckptPath(sess.id), cs, sess.digest); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			s.mu.Unlock()
			s.logf("drain %s failed: %v", sess.id, err)
			s.mu.Lock()
			continue
		}
		cs.Close()
		if sess.resident {
			sess.resident = false
			sess.evictions++
			s.evictions++
			s.resident--
		} else {
			s.warmCount--
			s.spills++
		}
		sess.cs, sess.sobs.cs = nil, nil
		sess.hasCkpt = true
		if sess.state == StateRunning {
			sess.state = StateReady
		}
	}
	s.drained = firstErr == nil
	// Snapshot the table for the observability-plane shutdown: drain
	// transitions and flight dumps for live sessions, then every hub
	// closed so /events subscribers see their streams end.
	type drainObs struct {
		sobs  *sessionObs
		state State
		cycle uint64
		live  bool
	}
	var obsList []drainObs
	for _, sess := range s.order {
		obsList = append(obsList, drainObs{
			sobs:  sess.sobs,
			state: sess.state,
			cycle: sess.cycle,
			live:  sess.state != StateDone && sess.state != StateFailed,
		})
	}
	s.mu.Unlock()
	for _, d := range obsList {
		if d.live {
			d.sobs.transition(FlightDrain, d.state, d.cycle, "server drain")
			s.dumpFlight(d.sobs, "drain")
		}
		d.sobs.hub.Close()
	}
	if err := s.saveManifest(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
