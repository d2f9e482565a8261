package repro_test

// Benchmarks for the cosimd multi-session server: raw scheduler
// dispatch cost at realistic pool occupancies, and the end-to-end
// server path (submit → slice → complete) against its cache-hit
// fast path.

import (
	"fmt"
	"testing"

	"repro/internal/cosimd"
)

// BenchmarkCosimdSchedPick measures one dispatch decision — Pick,
// charge, re-ready — with 256 ready sessions across 8 tenants, the
// integration test's shape. Pick is a linear scan (scores drift every
// tick, so there is no stable heap key); this pins its cost.
func BenchmarkCosimdSchedPick(b *testing.B) {
	sc := cosimd.NewSched(4096)
	for i := 0; i < 256; i++ {
		e := sc.Add(fmt.Sprintf("tenant-%d", i%8), uint64(i), nil)
		sc.Ready(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sc.Pick()
		sc.Account(e, 4096)
		sc.Ready(e)
	}
}

// BenchmarkCosimdSession measures the full server path for one tiny
// session — submit, slice scheduling over the worker pool, completion,
// envelope marshal — amortizing server start/stop across the batch.
func BenchmarkCosimdSession(b *testing.B) {
	srv, err := cosimd.NewServer(cosimd.Options{
		Workers: 2, SliceCycles: 2048, StateDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct seeds defeat the result cache: every iteration
		// simulates for real.
		_, err := srv.Submit(cosimd.SubmitRequest{
			Workload: "fft", Tiles: 4, Ops: 40, Seed: uint64(i + 1),
			Mode: "reciprocal", Limit: 200_000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	srv.Wait()
	b.StopTimer()
	for _, st := range srv.Sessions() {
		if st.State != cosimd.StateDone {
			b.Fatalf("session %s: %+v", st.ID, st)
		}
	}
}

// BenchmarkCosimdEvictionChurn measures a batch of 8 sessions end to
// end under constant eviction pressure (MaxResident 3 against 8
// pending, so nearly every slice dispatch pays a park plus a fault-in).
// One op is the whole batch: a single session never overflows the
// resident set, so a per-session op at -benchtime=1x measured no
// eviction at all. The warm variant parks every victim in memory — a
// hand-over, nothing copied — with a tier deep enough that nothing
// spills; the disk variant (MaxWarm < 0) serializes every eviction to a
// checkpoint and rebuilds from it.
func BenchmarkCosimdEvictionChurn(b *testing.B) {
	const batch = 8
	for _, tier := range []struct {
		name    string
		maxWarm int
	}{{"warm", 1 << 20}, {"disk", -1}} {
		b.Run(tier.name, func(b *testing.B) {
			srv, err := cosimd.NewServer(cosimd.Options{
				Workers: 2, SliceCycles: 512, MaxResident: 3, MaxWarm: tier.maxWarm,
				StateDir: b.TempDir(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					_, err := srv.Submit(cosimd.SubmitRequest{
						Workload: "fft", Tiles: 4, Ops: 40, Seed: uint64(i*batch + j + 1),
						Mode: "reciprocal", Limit: 200_000,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				srv.Wait()
			}
			b.StopTimer()
			for _, st := range srv.Sessions() {
				if st.State != cosimd.StateDone {
					b.Fatalf("session %s: %+v", st.ID, st)
				}
			}
			stats := srv.Stats()
			if stats.Evictions == 0 || (tier.maxWarm < 0) != (stats.Spills > 0) {
				b.Fatalf("%s tier not exercised: evictions=%d spills=%d", tier.name, stats.Evictions, stats.Spills)
			}
		})
	}
}

// BenchmarkCosimdCacheHit measures the digest-keyed fast path: the
// same config resubmitted is served from the cache without burning a
// worker or a simulated cycle.
func BenchmarkCosimdCacheHit(b *testing.B) {
	srv, err := cosimd.NewServer(cosimd.Options{
		Workers: 1, StateDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	req := cosimd.SubmitRequest{
		Workload: "fft", Tiles: 4, Ops: 40, Seed: 1,
		Mode: "reciprocal", Limit: 200_000,
	}
	if _, err := srv.Submit(req); err != nil {
		b.Fatal(err)
	}
	srv.Wait()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := srv.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Cached {
			b.Fatal("cache miss on a completed digest")
		}
	}
}
