// Package engine provides the worker pool behind the simulator's one
// sanctioned form of host parallelism: the cycle-level NoC dispatches
// one item per shard of its router partition for every pass of a
// multi-shard cycle (internal/noc, shard.go).
//
// An item only writes state it owns (plus slots that are read
// exclusively after the barrier at the end of Run), so applying fn
// to the items in any order — or concurrently — produces identical
// results. That discipline, not the scheduling, is what keeps parallel
// runs bit-identical to sequential ones; tests assert the equivalence.
//
//simlint:allow-file concurrency this package IS the sanctioned parallelism: a fixed worker pool whose bit-identity to sequential execution is asserted by determinism tests
package engine

import "sync"

// Parallel spreads items across a fixed pool of persistent workers with
// a barrier at the end of every Run call. Work is divided into
// contiguous static chunks so the assignment of items to workers is
// deterministic (though determinism of results is guaranteed by the
// ownership discipline, not by scheduling).
type Parallel struct {
	workers int
	start   chan span
	done    chan struct{}
	closed  bool
	mu      sync.Mutex
}

// span is one chunk of one Run call. The chunk bounds travel in the
// message (rather than being derived from a worker id) so that any
// worker may execute any chunk: with id-derived bounds, a worker that
// finished early could steal a message intended for a peer and run its
// own chunk twice while the peer's chunk was never run.
type span struct {
	lo, hi int
	fn     func(int)
}

// NewParallel returns a pool with the given worker count (minimum 1).
// Workers are long-lived goroutines; call Close when done.
func NewParallel(workers int) *Parallel {
	workers = max(workers, 1)
	p := &Parallel{
		workers: workers,
		start:   make(chan span),
		done:    make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Parallel) worker() {
	for sp := range p.start {
		for i := sp.lo; i < sp.hi; i++ {
			sp.fn(i)
		}
		p.done <- struct{}{}
	}
}

// Chunk divides n items into w near-equal contiguous ranges and
// returns the id-th range.
func Chunk(n, w, id int) (lo, hi int) {
	base := n / w
	rem := n % w
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}

// Run applies fn to every index in [0, n), distributing contiguous
// chunks across the worker pool and waiting for all of them.
func (p *Parallel) Run(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	for w := 0; w < p.workers; w++ {
		lo, hi := Chunk(n, p.workers, w)
		p.start <- span{lo: lo, hi: hi, fn: fn}
	}
	for w := 0; w < p.workers; w++ {
		<-p.done
	}
}

// Workers reports the pool size.
func (p *Parallel) Workers() int { return p.workers }

// Close shuts the worker pool down. Run must not be called after Close.
func (p *Parallel) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		close(p.start)
		p.closed = true
	}
}
