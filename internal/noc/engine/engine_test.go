package engine

import (
	"sync/atomic"
	"testing"
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
