package cosimd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ckpt"
)

// manifestName is the session-table file a drained server leaves in
// its StateDir.
const manifestName = "manifest.json"

// manifest is the persisted session table. Only a graceful Close
// writes it; NewServer restores from it when present, so a restarted
// server picks up exactly where the drained one stopped: done sessions
// re-seed the result cache, unfinished ones re-enter the scheduler as
// non-resident sessions that fault in from their drain checkpoints.
type manifest struct {
	NextSeq  uint64            `json:"next_seq"`
	Sessions []manifestSession `json:"sessions"`
}

type manifestSession struct {
	ID        string        `json:"id"`
	Seq       uint64        `json:"seq"`
	Req       SubmitRequest `json:"req"`
	Digest    uint64        `json:"digest"`
	State     State         `json:"state"`
	HasCkpt   bool          `json:"has_ckpt"`
	Cycle     uint64        `json:"cycle"`
	Cycles    uint64        `json:"cycles"`
	Retired   uint64        `json:"retired"`
	Evictions int           `json:"evictions"`
	Restores  int           `json:"restores"`
	Cached    bool          `json:"cached"`
	Finished  bool          `json:"finished"`
	Error     string        `json:"error,omitempty"`
	// Result holds the envelope bytes verbatim (base64 in the manifest:
	// embedding them as raw JSON would re-indent them on save and break
	// the byte-identity contract across restarts).
	Result []byte `json:"result,omitempty"`
}

// saveManifest writes the session table atomically. Called after the
// worker pool has exited; takes the lock only to snapshot the table.
func (s *Server) saveManifest() error {
	s.mu.Lock()
	m := manifest{NextSeq: s.nextSeq}
	for _, sess := range s.order {
		m.Sessions = append(m.Sessions, manifestSession{
			ID:        sess.id,
			Seq:       sess.seq,
			Req:       sess.req,
			Digest:    sess.digest,
			State:     sess.state,
			HasCkpt:   sess.hasCkpt,
			Cycle:     sess.cycle,
			Cycles:    sess.cycles,
			Retired:   sess.retired,
			Evictions: sess.evictions,
			Restores:  sess.restores,
			Cached:    sess.cached,
			Finished:  sess.finished,
			Error:     sess.errMsg,
			Result:    sess.result,
		})
	}
	s.mu.Unlock()
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return ckpt.WriteFile(filepath.Join(s.opts.StateDir, manifestName), blob)
}

// loadManifest restores a drained server's session table. Called from
// NewServer before the worker pool starts, so no locking is needed. A
// missing manifest is a fresh StateDir, not an error.
func (s *Server) loadManifest() error {
	blob, err := os.ReadFile(filepath.Join(s.opts.StateDir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return fmt.Errorf("cosimd: corrupt manifest: %w", err)
	}
	s.nextSeq = m.NextSeq
	for _, ms := range m.Sessions {
		sess := &session{
			id:        ms.ID,
			seq:       ms.Seq,
			req:       ms.Req,
			digest:    ms.Digest,
			state:     ms.State,
			hasCkpt:   ms.HasCkpt,
			cycle:     ms.Cycle,
			cycles:    ms.Cycles,
			retired:   ms.Retired,
			evictions: ms.Evictions,
			restores:  ms.Restores,
			cached:    ms.Cached,
			finished:  ms.Finished,
			errMsg:    ms.Error,
			result:    ms.Result,
		}
		// Hub and flight ring are process-local; a restored session
		// starts a fresh plane (final sessions get a closed hub so
		// /events streams end immediately).
		sess.sobs = s.newSessionObs(sess.id, sess.req.Tenant, sess.req.Metrics)
		switch sess.state {
		case StateDone:
			sess.sobs.finish(StateDone, sess.cycle, "manifest-restore")
			if sess.finished && len(sess.result) > 0 && s.cache[sess.digest] == nil {
				var env ResultEnvelope
				if err := json.Unmarshal(sess.result, &env); err == nil {
					sess.fingerprint = env.Fingerprint
					s.cache[sess.digest] = &cacheEntry{
						envelope:    sess.result,
						fingerprint: env.Fingerprint,
						finished:    true,
					}
				}
			}
		case StateFailed:
			// final; nothing to re-enter
			sess.sobs.finish(StateFailed, sess.cycle, "manifest-restore")
		default:
			// Any non-final state re-enters the scheduler as a ready,
			// non-resident session. Its drain checkpoint (when present)
			// faults in at first dispatch; the tenant is re-charged the
			// cycles the session already consumed so restarted fair-share
			// accounting stays consistent.
			sess.state = StateReady
			sess.entry = s.sched.Add(sess.req.Tenant, sess.seq, sess)
			s.sched.Account(sess.entry, sess.cycles)
			s.sched.Ready(sess.entry)
			sess.sobs.transition(FlightSubmit, StateReady, sess.cycle, "manifest-restore")
		}
		s.sessions[sess.id] = sess
		s.order = append(s.order, sess)
	}
	return nil
}
