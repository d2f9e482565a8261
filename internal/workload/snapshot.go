package workload

import (
	"repro/internal/snapshot"
)

// State walks the kernel's generator position: every per-core RNG
// stream and the op-budget / phase / state machine counters. The
// configuration fields are not part of it — they are part of the run
// description covered by the config digest.
func (s *Synthetic) State(c *snapshot.Codec) {
	s.init()
	c.Section("workload")
	snapshot.Match(c, snapshot.As32[int], s.Cores, "workload cores")
	for i := 0; i < s.Cores && c.Err() == nil; i++ {
		s.rngs[i].State(c)
		c.Int(&s.done[i])
		c.Int(&s.phase[i])
		c.U64(&s.nextBar[i])
		c.U8(&s.state[i])
		if s.state[i] > wHalted {
			c.Failf("core %d workload state %d out of range", i, s.state[i])
		}
	}
}
