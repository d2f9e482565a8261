package cosimd

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Handler returns the server's HTTP API (stdlib mux, JSON bodies):
//
//	POST /api/v1/sessions            submit one run  → SessionStatus
//	GET  /api/v1/sessions            list sessions   → []SessionStatus
//	GET  /api/v1/sessions/{id}       session status  → SessionStatus
//	GET  /api/v1/sessions/{id}/result   completed envelope (exact cached bytes)
//	GET  /api/v1/sessions/{id}/metrics  latest obs metrics snapshot
//	GET  /api/v1/sessions/{id}/events   NDJSON event stream: a sync line, one progress event per slice, closed at the final state
//	GET  /api/v1/sessions/{id}/flight   flight-recorder ring dump
//	POST /api/v1/sweeps              expand + submit a sweep → SweepReply
//	GET  /api/v1/stats               pool accounting → ServerStats
//	GET  /metrics                    Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/sessions", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/sessions", s.handleList)
	mux.HandleFunc("GET /api/v1/sessions/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/sessions/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/sessions/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/sessions/{id}/flight", s.handleFlight)
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleProm)
	return mux
}

// streamPrep prepares w for NDJSON streaming and returns its Flusher.
// When the ResponseWriter cannot flush (a wrapping middleware hid the
// interface), the response is tagged with an explicit Warning header —
// the stream still writes line by line, it just reaches the client at
// the wrapper's buffering mercy — instead of silently degrading. Must
// run before the first body write.
func streamPrep(w http.ResponseWriter) http.Flusher {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, ok := w.(http.Flusher)
	if !ok {
		w.Header().Set("Warning",
			`199 cosimd "response writer does not support flushing; stream delivery is buffered"`)
		return nil
	}
	return flusher
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Sessions())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	env, st, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if st.State == StateFailed {
		writeError(w, http.StatusConflict, "session failed: %s", st.Error)
		return
	}
	if env == nil {
		writeError(w, http.StatusConflict, "session not finished (state %s)", st.State)
		return
	}
	// The envelope is served verbatim — cache hits are byte-identical
	// to the original run's response body.
	w.Header().Set("Content-Type", "application/json")
	w.Write(env)
}

// handleMetrics distinguishes the three failure shapes: unknown
// session (404), session not submitted with metrics (409, fix the
// submission), and metrics armed but no slice completed yet (409,
// retry later).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	blob, armed, ok := s.Metrics(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if !armed {
		writeError(w, http.StatusConflict, "session was not submitted with \"metrics\": true")
		return
	}
	if blob == nil {
		writeError(w, http.StatusConflict, "no metrics snapshot yet: no slice has completed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

// handleEvents streams the session's observability events as NDJSON:
// one synthetic sync line (current state + last published sequence),
// then every event the hub fans out, until the session reaches a final
// state, the server drains, or the client disconnects. Subscribers
// that fall behind their bounded queue lose events — visible as Seq
// gaps — rather than slowing workers.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sub, syncEv, ok := s.Events(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if sub == nil {
		writeError(w, http.StatusConflict, "event streaming is disabled (-events-buffer < 0)")
		return
	}
	defer sub.Cancel()
	flusher := streamPrep(w)
	enc := json.NewEncoder(w)
	if err := enc.Encode(syncEv); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	ctx := r.Context()
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				return // session final or server drained
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			return
		}
	}
}

// handleFlight dumps the session's flight-recorder ring.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	reply, armed, ok := s.Flight(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if !armed {
		writeError(w, http.StatusConflict, "flight recording is disabled (-flight-depth < 0)")
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleProm serves the server-wide Prometheus exposition.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	s.WriteProm(w)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sw SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&sw); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var reply SweepReply
	for _, req := range sw.Expand() {
		st, err := s.Submit(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, "sweep point %d: %v", len(reply.IDs), err)
			return
		}
		reply.IDs = append(reply.IDs, st.ID)
		if st.Cached {
			reply.Cached++
		}
	}
	writeJSON(w, http.StatusAccepted, reply)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
