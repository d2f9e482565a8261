package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelCoversAllExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		p := NewParallel(workers)
		for _, n := range []int{0, 1, 5, 100, 1023} {
			counts := make([]int64, n)
			p.Run(n, func(i int) { atomic.AddInt64(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

func TestParallelRepeatedRuns(t *testing.T) {
	p := NewParallel(4)
	defer p.Close()
	var total int64
	for round := 0; round < 50; round++ {
		p.Run(64, func(i int) { atomic.AddInt64(&total, 1) })
	}
	if total != 50*64 {
		t.Fatalf("total %d want %d", total, 50*64)
	}
}

func TestParallelMinimumOneWorker(t *testing.T) {
	p := NewParallel(0)
	defer p.Close()
	if p.Workers() != 1 {
		t.Errorf("workers = %d want 1", p.Workers())
	}
	done := false
	p.Run(1, func(int) { done = true })
	if !done {
		t.Error("work not executed")
	}
}

func TestParallelCloseIdempotent(t *testing.T) {
	p := NewParallel(2)
	p.Close()
	p.Close() // must not panic
}

func TestChunkPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, w := range []int{1, 3, 8} {
			prev := 0
			total := 0
			for id := 0; id < w; id++ {
				lo, hi := Chunk(n, w, id)
				if lo != prev {
					t.Fatalf("n=%d w=%d id=%d: gap at %d (lo=%d)", n, w, id, prev, lo)
				}
				if hi < lo {
					t.Fatalf("n=%d w=%d id=%d: negative chunk", n, w, id)
				}
				total += hi - lo
				prev = hi
			}
			if prev != n || total != n {
				t.Fatalf("n=%d w=%d: covered %d", n, w, total)
			}
		}
	}
}

// TestParallelPanicReachesCaller: a panic in fn on a pool worker is
// re-raised by Run on the calling goroutine, with the panic's value,
// once every worker has reported; the pool's goroutines survive it and
// exit at Close.
func TestParallelPanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4} {
		p := NewParallel(workers)
		const bad = 5
		got := func() (r any) {
			defer func() { r = recover() }()
			p.Run(8, func(i int) {
				if i == bad {
					panic("item 5 fails")
				}
			})
			return nil
		}()
		if got != "item 5 fails" {
			t.Errorf("workers=%d: Run panicked with %v, want the item's panic value", workers, got)
		}
		// The pool still works after a panicking Run.
		n := 0
		p.Run(1, func(int) { n++ })
		if n != 1 {
			t.Errorf("workers=%d: the pool did not run after a panic", workers)
		}
		p.Close()
	}
	g := runtime.NumGoroutine()
	for i := 0; i < 500 && g > base; i++ {
		time.Sleep(time.Millisecond)
		g = runtime.NumGoroutine()
	}
	if g > base {
		t.Errorf("%d goroutines left after Close", g-base)
	}
}
