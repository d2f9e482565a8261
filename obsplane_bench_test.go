package repro_test

// Benchmarks for the observability plane's two hot paths: hub fan-out
// (paid once per published event, off the slice boundary, whatever the
// subscriber count) and flight-ring recording (paid once per coupling
// quantum). Both must be allocation-free at steady state — the plane's
// cost model is "a worker never allocates or blocks to be observed".

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obsplane"
)

// BenchmarkObsplaneFanout measures Hub.Publish against 1, 8, and 64
// live subscribers, each drained by its own goroutine. The cost is one
// non-blocking channel send per subscriber; a subscriber that cannot
// keep up costs a failed send (drop-and-count), never a stall, so
// ns/op stays flat in the consumers' behavior and allocs/op stays 0.
func BenchmarkObsplaneFanout(b *testing.B) {
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			hub := obsplane.NewHub(1024)
			var wg sync.WaitGroup
			for i := 0; i < subs; i++ {
				sub := hub.Subscribe()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range sub.Events() {
					}
				}()
			}
			ev := obsplane.Event{Kind: obsplane.KindProgress, Session: "bench", Tenant: "t"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Cycle = uint64(i)
				hub.Publish(ev)
			}
			b.StopTimer()
			hub.Close()
			wg.Wait()
		})
	}
}

// BenchmarkFlightRecord measures one flight-ring append — the
// per-quantum cost every session pays whenever flight recording is on
// (it is on by default). O(1), allocation-free, ring depth irrelevant.
func BenchmarkFlightRecord(b *testing.B) {
	fr := obsplane.NewFlightRecorder(64)
	e := obsplane.FlightEntry{Kind: obsplane.FlightQuantum, Retired: 1, InFlight: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cycle = uint64(i)
		fr.Record(e)
	}
}
