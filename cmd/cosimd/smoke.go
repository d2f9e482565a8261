package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/cosimd"
	"repro/internal/obsplane"
	"repro/internal/sim"
)

// smokeSweep is the workload the smoke test pushes through the server:
// small enough to finish in seconds, wide enough (6 points × several
// slices each) to exercise scheduling, and run under a resident limit
// far below the session count, and a one-slot warm tier, so parks,
// adoptions, spills and checkpoint fault-ins are all certain.
var smokeSweep = cosimd.SweepRequest{
	Base:      cosimd.SubmitRequest{Tiles: 16, Ops: 200, Limit: 2_000_000, Tenant: "smoke"},
	Workloads: []string{"fft", "radix"},
	Modes:     []string{"reciprocal", "abstract", "synchronous"},
}

// runSmoke drives the full client-visible contract end to end through
// a real TCP listener: submit a sweep, follow each session's event
// stream to completion, verify every fingerprint against a direct
// in-process run of the same config, and verify a resubmission is a
// byte-identical cache hit that burned zero simulated cycles.
func runSmoke(opts cosimd.Options) error {
	// Force eviction pressure on both tiers regardless of the command
	// line: with 6 sessions, 3 stay resident, 1 is parked in memory and
	// the rest round-trip through checkpoint files.
	opts.Workers = 2
	opts.MaxResident = 3
	opts.MaxWarm = 1
	opts.SliceCycles = 2048
	srv, err := cosimd.NewServer(opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	var reply cosimd.SweepReply
	if err := postJSON(base+"/api/v1/sweeps", smokeSweep, &reply); err != nil {
		return err
	}
	if reply.Cached != 0 {
		return fmt.Errorf("fresh sweep reported %d cached points", reply.Cached)
	}
	fmt.Printf("smoke: sweep of %d sessions submitted\n", len(reply.IDs))

	reqs := smokeSweep.Expand()
	for i, id := range reply.IDs {
		st, err := followEvents(base, id)
		if err != nil {
			return err
		}
		if st.State != cosimd.StateDone {
			return fmt.Errorf("session %s ended %s: %s", id, st.State, st.Error)
		}
		env, err := getResult(base, id)
		if err != nil {
			return err
		}
		want, err := directFingerprint(reqs[i])
		if err != nil {
			return err
		}
		if env.Fingerprint != want {
			return fmt.Errorf("session %s (%s/%s): served fingerprint diverges from direct run\n  served: %s\n  direct: %s",
				id, reqs[i].Workload, reqs[i].Mode, env.Fingerprint, want)
		}
		fmt.Printf("smoke: %s %s/%s fingerprint matches direct run (evictions=%d restores=%d)\n",
			id, reqs[i].Workload, reqs[i].Mode, st.Evictions, st.Restores)
	}

	var stats cosimd.ServerStats
	if err := getJSON(base+"/api/v1/stats", &stats); err != nil {
		return err
	}
	if stats.WarmRestores == 0 || stats.Spills == 0 || stats.Restores == stats.WarmRestores {
		return fmt.Errorf("pool limits did not exercise both eviction tiers (evictions=%d restores=%d warm_restores=%d spills=%d) — smoke proved nothing",
			stats.Evictions, stats.Restores, stats.WarmRestores, stats.Spills)
	}
	fmt.Printf("smoke: pool stats: evictions=%d restores=%d (%d warm) spills=%d cache=%d/%d fairness-spread=%d cycles over %d samples\n",
		stats.Evictions, stats.Restores, stats.WarmRestores, stats.Spills, stats.CacheHits, stats.CacheHits+stats.CacheMiss,
		stats.Fairness.MaxSpread, stats.Fairness.Samples)

	// Resubmit the first sweep point: must be served from the cache,
	// byte-identical, with zero additional simulated cycles.
	var st cosimd.SessionStatus
	if err := postJSON(base+"/api/v1/sessions", reqs[0], &st); err != nil {
		return err
	}
	if !st.Cached || st.State != cosimd.StateDone || st.Cycles != 0 {
		return fmt.Errorf("resubmission not cache-served: %+v", st)
	}
	first, err := getResultBytes(base, reply.IDs[0])
	if err != nil {
		return err
	}
	again, err := getResultBytes(base, st.ID)
	if err != nil {
		return err
	}
	if !bytes.Equal(first, again) {
		return fmt.Errorf("cache hit is not byte-identical to the original result")
	}
	fmt.Printf("smoke: resubmission %s cache-served byte-identically, 0 cycles\n", st.ID)
	return nil
}

// directFingerprint runs the request uninterrupted in-process — no
// server, no slicing, no eviction — and fingerprints the outcome.
func directFingerprint(req cosimd.SubmitRequest) (string, error) {
	req.Normalize()
	cs, err := cosimd.StdBuilder{}.Build(req)
	if err != nil {
		return "", err
	}
	defer cs.Close()
	res := cs.Run(sim.Cycle(req.Limit))
	return cosimd.Fingerprint(cs, res), nil
}

func postJSON(url string, body, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return httpError(url, resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// followEvents reads the session's NDJSON event stream until the
// server closes it at the final state, then fetches the final status —
// the stream blocks server-side between events, so the smoke test needs
// no polling loop and no timers.
func followEvents(base, id string) (cosimd.SessionStatus, error) {
	var st cosimd.SessionStatus
	resp, err := http.Get(base + "/api/v1/sessions/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, httpError("events", resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev obsplane.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return st, err
		}
		if ev.Kind == obsplane.KindProgress || ev.Kind == obsplane.KindState {
			fmt.Fprintf(os.Stderr, "smoke: %s %s %s cycle=%d %s\n", id, ev.Kind, ev.State, ev.Cycle, ev.Note)
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, getJSON(base+"/api/v1/sessions/"+id, &st)
}

func getResult(base, id string) (cosimd.ResultEnvelope, error) {
	var env cosimd.ResultEnvelope
	blob, err := getResultBytes(base, id)
	if err != nil {
		return env, err
	}
	return env, json.Unmarshal(blob, &env)
}

func getResultBytes(base, id string) ([]byte, error) {
	resp, err := http.Get(base + "/api/v1/sessions/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError("result", resp)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(url, resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func httpError(what string, resp *http.Response) error {
	var apiErr struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&apiErr)
	return fmt.Errorf("%s: HTTP %d: %s", what, resp.StatusCode, apiErr.Error)
}
