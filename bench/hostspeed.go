//simlint:allow-file wallclock the benchmark harness measures host time from outside the simulator; nothing here feeds simulated state

package main

import (
	"runtime"
	"time"
)

// The recording host is a small shared virtual machine whose speed
// drifts by tens of percent over minutes: in one ten-minute stretch the
// recip256 run went from 62 to 85 host seconds per simulated megacycle
// with nothing else running. A drift that slow cannot be averaged out
// inside a run of seconds, so the harness measures it instead: next to
// every timed repetition it times a fixed reference kernel, and the
// end-to-end host-time metrics are reported as if the host ran that
// kernel in refNominal — seconds on a reference host, not on whatever
// the neighbours left of this one. Across fourteen runs of one commit
// during that stretch the raw numbers spread (interquartile range over
// median) by 19 to 25 %, the scaled ones by 6 to 11 %; the correlation
// between a run's time and its reference was 0.81 to 0.90.
//
// The kernel lives here, outside the simulator, so a change to the
// simulator cannot move it. It is shaped like the simulator's inner
// loops — a few thousand small queue-holding nodes swept in order,
// unpredictable branches, dependent loads and stores into neighbours,
// an occasional miss into a few megabytes — because a kernel of pure
// arithmetic or pure pointer chasing drifts by a different amount than
// the simulator does (correlations of 0.2 to 0.7 when tried).

// refNominal is the reference host's time for one refKernel call: what
// the recording host takes when it is quiet.
const refNominal = 12 * time.Millisecond

type refNode struct {
	q          [8]uint32
	head, tail uint32
	credit     uint32
	state      uint32
	acc        uint64
	_          [2]uint64 // one node per cache line
}

var (
	refNodes []refNode
	refMem   []uint64
	refSink  uint64
)

// refKernel runs the fixed reference computation once and reports how
// long it took.
func refKernel() time.Duration {
	if refNodes == nil {
		refNodes = make([]refNode, 4096)
		refMem = make([]uint64, 1<<19)
		x := uint64(88172645463325252)
		for i := range refMem {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			refMem[i] = x
		}
		for i := range refNodes {
			refNodes[i] = refNode{credit: 4, tail: 1}
			refNodes[i].q[0] = uint32(refMem[i])
		}
		// The node population carries over from call to call; one untimed
		// call takes it from the start state to its steady mix of work.
		refKernel()
	}
	t0 := time.Now()
	n := uint32(len(refNodes))
	mask := uint64(len(refMem) - 1)
	for step := 0; step < 160; step++ {
		for i := uint32(0); i < n; i++ {
			nd := &refNodes[i]
			if nd.head == nd.tail {
				nd.state++
				if nd.state&7 == 0 {
					nd.q[nd.tail&7] = uint32(nd.acc) | 1
					nd.tail++
				}
				continue
			}
			v := nd.q[nd.head&7]
			nd.head++
			h := uint64(v)*0x9E3779B97F4A7C15 + nd.acc
			nd.acc = h
			var dst uint32
			switch h >> 62 {
			case 0:
				dst = (i + 1) % n
			case 1:
				dst = (i + 64) % n
			case 2:
				dst = (i + n - 1) % n
			default:
				dst = (i + n - 64) % n
			}
			d := &refNodes[dst]
			if d.tail-d.head < 8 && d.credit > 0 {
				d.q[d.tail&7] = uint32(h >> 16)
				d.tail++
			} else {
				nd.credit++
			}
			if h&15 == 0 {
				nd.acc ^= refMem[h&mask]
			}
		}
	}
	took := time.Since(t0)
	refSink += refNodes[7].acc
	return took
}

// refPeriod is how often the kernel is timed beside a measurement: one
// call every tenth of a second, an eighth of the second CPU.
// refMinReadings is the fewest readings a measurement's speed rests on.
const (
	refPeriod      = 100 * time.Millisecond
	refMinReadings = 5
)

// sampleHost starts timing the reference kernel beside a measurement and
// returns the function that stops it and reports the host's slowness
// over the measurement: the median reading as a multiple of refNominal,
// so 1.25 means the host ran a quarter slower than the reference host.
//
// The kernel is timed while the measurement runs, on the CPU the one
// simulating thread leaves free, because the host's speed moves by a
// tenth from one tenth of a second to the next: 150 s of a 125 ms
// simulation alternating with a reading spread, in blocks of 3 s, by
// 10 % as measured, 10 % scaled by a reading before and one after the
// block, 6 % scaled by the median of the twenty readings inside it. A
// reading is the processor time of the sampler's own thread, not the
// clock's: when the second CPU is taken (it was, once, for a minute) the
// sampler shares the first with the simulator in ten-millisecond turns,
// and by the clock the kernel then takes 1.9 times as long while the
// simulator loses a tenth. A measurement shorter than refMinReadings
// periods is topped up with readings taken right after it.
func (h *harness) sampleHost() (stop func() float64) {
	halt, done := make(chan struct{}), make(chan struct{})
	var took []float64
	go func() {
		defer close(done)
		runtime.LockOSThread() // threadCPU reads this thread's clock
		defer runtime.UnlockOSThread()
		wait := time.NewTimer(0)
		defer wait.Stop()
		stopped := false
		for !stopped || len(took) < refMinReadings {
			if !stopped {
				select {
				case <-halt:
					stopped = true
					continue
				case <-wait.C:
				}
			}
			t0 := threadCPU()
			wall := refKernel()
			if cpu := threadCPU() - t0; cpu > 0 {
				took = append(took, float64(cpu))
			} else {
				took = append(took, float64(wall))
			}
			wait.Reset(refPeriod - refNominal)
		}
	}()
	return func() float64 {
		close(halt)
		<-done
		s := median(took) / float64(refNominal)
		h.slowness = append(h.slowness, s)
		return s
	}
}

// hostSlowness reads the host's speed with nothing running beside the
// kernel: the record of a run starts and ends with one.
func (h *harness) hostSlowness() float64 { return h.sampleHost()() }
