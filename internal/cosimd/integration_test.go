package cosimd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// TestIntegrationManySessions is the acceptance run for the subsystem:
// 256 concurrent sessions across 8 tenants on an 8-worker pool with a
// resident limit an order of magnitude below the session count, so the
// pool lives under constant eviction pressure. It asserts the three
// service-level contracts end to end:
//
//	(a) evicted-and-resumed sessions finish with fingerprints identical
//	    to uninterrupted runs of the same configs;
//	(b) resubmitting a completed config is served from the cache,
//	    byte-identical, with zero additional simulated cycles;
//	(c) fair-share skew across tenants stays bounded: the worst
//	    observed cross-tenant gap in consumed cycles is a small
//	    multiple of the slice, tiny against each tenant's total.
func TestIntegrationManySessions(t *testing.T) {
	if testing.Short() {
		t.Skip("256-session integration run")
	}
	const (
		tenants     = 8
		perTenant   = 32
		sessions    = tenants * perTenant
		workers     = 8
		maxResident = 24
		maxWarm     = 8
		slice       = 512
	)
	// maxWarm far below the eviction churn keeps BOTH eviction tiers
	// under pressure: evictions park the live session as it is, and the
	// warm tier's own overflow exercises the spill-to-checkpoint path.
	srv := newTestServer(t, Options{
		Workers: workers, MaxResident: maxResident, MaxWarm: maxWarm, SliceCycles: slice,
	})

	reqs := make([]SubmitRequest, 0, sessions)
	ids := make([]string, 0, sessions)
	for i := 0; i < sessions; i++ {
		req := tinyReq(uint64(i + 1)) // distinct seeds → distinct digests
		req.Tenant = fmt.Sprintf("tenant-%d", i%tenants)
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st.Cached {
			t.Fatalf("submit %d: fresh config served from cache", i)
		}
		reqs = append(reqs, req)
		ids = append(ids, st.ID)
	}
	srv.Wait()

	// Everything completed, and the pool really was under pressure.
	stats := srv.Stats()
	if got := stats.ByState[StateDone]; got != sessions {
		t.Fatalf("%d/%d sessions done; states: %v", got, sessions, stats.ByState)
	}
	if stats.Evictions == 0 || stats.Restores == 0 {
		t.Fatalf("no eviction pressure (evictions=%d restores=%d) — the run proved nothing",
			stats.Evictions, stats.Restores)
	}
	if stats.WarmRestores == 0 || stats.Spills == 0 {
		t.Fatalf("both capture tiers must be exercised (warm restores=%d spills=%d)",
			stats.WarmRestores, stats.Spills)
	}
	t.Logf("pool: %d sessions, %d evictions, %d restores (%d warm), %d spills, resident peak ≤ %d",
		sessions, stats.Evictions, stats.Restores, stats.WarmRestores, stats.Spills, maxResident)

	// (a) Fingerprints: every evicted session must match a direct,
	// never-interrupted run. Direct runs are the expensive half, so
	// sample evicted sessions evenly rather than rerunning all 256.
	checked, evictedSeen := 0, 0
	for i, id := range ids {
		st, _ := srv.Status(id)
		if st.Evictions == 0 {
			continue
		}
		evictedSeen++
		if evictedSeen%8 != 1 { // every 8th evicted session
			continue
		}
		_, env := envelope(t, srv, id)
		if want := directFingerprint(t, reqs[i]); env.Fingerprint != want {
			t.Errorf("session %s (%d evictions): fingerprint diverged\n got %s\nwant %s",
				id, st.Evictions, env.Fingerprint, want)
		}
		checked++
	}
	if evictedSeen == 0 || checked == 0 {
		t.Fatalf("no evicted sessions verified (saw %d)", evictedSeen)
	}
	t.Logf("fingerprints: %d of %d evicted sessions verified against direct runs",
		checked, evictedSeen)

	// (b) Cache: resubmit a config that went through evictions.
	victim := -1
	for i, id := range ids {
		if st, _ := srv.Status(id); st.Evictions > 0 {
			victim = i
			break
		}
	}
	first, _, _ := srv.Result(ids[victim])
	st, err := srv.Submit(reqs[victim])
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached || st.State != StateDone || st.Cycles != 0 {
		t.Fatalf("resubmission not cache-served with zero cycles: %+v", st)
	}
	again, _, _ := srv.Result(st.ID)
	if !bytes.Equal(first, again) {
		t.Error("cache hit is not byte-identical to the original result")
	}

	// (c) Fairness: with 8 symmetric tenants the scheduler must keep
	// consumed-cycle totals close. Bound the worst observed spread by a
	// small multiple of the slice: each dispatch moves one tenant by at
	// most ~(slice + quantum overshoot), and with `workers` slices in
	// flight the gap cannot legitimately exceed a few slices per worker.
	// Each tenant consumes ~170k cycles total, so this bound (~4% of
	// it) would catch any systematic starvation.
	if stats.Fairness.Samples == 0 {
		t.Fatal("no steady-state fairness samples across an 8-tenant run")
	}
	var minC, maxC uint64
	for i, ten := range stats.Tenants {
		if ten.Finished != perTenant {
			t.Errorf("tenant %s finished %d/%d", ten.Tenant, ten.Finished, perTenant)
		}
		if i == 0 || ten.Cycles < minC {
			minC = ten.Cycles
		}
		if ten.Cycles > maxC {
			maxC = ten.Cycles
		}
	}
	bound := uint64((2*workers + 4) * slice)
	if stats.Fairness.MaxSpread > bound {
		t.Errorf("steady-state fair-share skew %d cycles exceeds bound %d (samples=%d)",
			stats.Fairness.MaxSpread, bound, stats.Fairness.Samples)
	}
	t.Logf("fairness: spread ≤ %d cycles over %d samples (bound %d); final totals %d..%d",
		stats.Fairness.MaxSpread, stats.Fairness.Samples, bound, minC, maxC)

	// The session table is JSON-clean end to end (the HTTP layer serves
	// these structs verbatim).
	if _, err := json.Marshal(srv.Sessions()); err != nil {
		t.Fatalf("session table not marshalable: %v", err)
	}
}
