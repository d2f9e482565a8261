package cosimd

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// stalledWriter is an /events client that never reads: every Write
// blocks until the test releases it.
type stalledWriter struct {
	header  http.Header
	entered chan struct{} // closed at the first Write
	release chan struct{}
	once    sync.Once
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestEventsSubscriberThatNeverReads: an /events subscriber stuck in
// its first Write neither slows nor perturbs the worker. The session
// it watches and a sibling on the same single worker run to their
// direct fingerprints, the overflow is counted as dropped events on
// the hub and on /metrics, and once the client lets go the handler
// drains what is queued, returns, and leaves no goroutine behind.
func TestEventsSubscriberThatNeverReads(t *testing.T) {
	srv, release := newGatedServer(t, Options{Workers: 1, EventsBuffer: 4})
	before := runtime.NumGoroutine()

	watched := tinyReq(61)
	watched.MemModel = "calibrated"
	watched.Metrics = true
	sibling := tinyReq(62)
	var ids []string
	for _, req := range []SubmitRequest{watched, sibling} {
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	w := &stalledWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	returned := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/sessions/"+ids[0]+"/events", nil))
		close(returned)
	}()
	<-w.entered // subscribed, and stuck on the sync line
	release()
	srv.Wait()

	for i, req := range []SubmitRequest{watched, sibling} {
		_, env := envelope(t, srv, ids[i])
		if want := directFingerprint(t, req); env.Fingerprint != want {
			t.Errorf("session %s: served %s, direct %s", ids[i], env.Fingerprint, want)
		}
	}
	if d := srv.Stats().Obs.Dropped; d == 0 {
		t.Error("the hub counted no dropped events for a subscriber that never read")
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var promDropped float64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "cosimd_events_dropped_total "); ok {
			promDropped, _ = strconv.ParseFloat(v, 64)
		}
	}
	if promDropped == 0 {
		t.Error("/metrics reports no dropped events")
	}

	close(w.release)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the /events handler did not return once its client was released")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObserverReleasesDroppedSimulation: a session's observer outlives
// its simulation (its flight ring reads the simulation every quantum),
// so it must let go when the server drops the simulation — at
// completion, at a spill and at drain — or every finished and spilled
// session would pin a whole simulation in memory.
func TestObserverReleasesDroppedSimulation(t *testing.T) {
	pinned := func(t *testing.T, srv *Server) {
		t.Helper()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, sess := range srv.order {
			if sess.sobs.cs != nil {
				t.Errorf("session %s (%s, resident=%v) still pins its simulation", sess.id, sess.state, sess.resident)
			}
		}
	}
	t.Run("finished", func(t *testing.T) {
		srv := newTestServer(t, Options{Workers: 1})
		for seed := uint64(71); seed < 73; seed++ {
			if _, err := srv.Submit(tinyReq(seed)); err != nil {
				t.Fatal(err)
			}
		}
		srv.Wait()
		pinned(t, srv)
	})
	t.Run("spilled-and-drained", func(t *testing.T) {
		srv, err := NewServer(Options{Workers: 1, MaxResident: 1, MaxWarm: 1, SliceCycles: 256, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(73); seed < 77; seed++ {
			req := tinyReq(seed)
			req.Ops = 20_000 // still running at drain
			if _, err := srv.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); srv.Stats().Spills == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no session was spilled; the check is vacuous")
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		pinned(t, srv)
	})
}
