package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/abstractnet"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestHybridFullWindowMatchesDetailed: a hybrid whose sample window
// fills its period routes every packet to the detailed network, so it
// delivers what a bare detailed network given the same injections
// delivers, and every delivery is an observation of the tuned model.
// The schedule is only data.
func TestHybridFullWindowMatchesDetailed(t *testing.T) {
	const period, end = 64, 900
	m := topology.NewMesh(4, 4, 1)
	tuned := abstractnet.NewTuned(abstractnet.NewContention(m, abstractnet.DefaultParams()), 4096)
	h, err := NewHybrid(detailedBackend(t), tuned, period, period)
	if err != nil {
		t.Fatal(err)
	}
	deliveries := func(b Backend) []string {
		var log []string
		for c := sim.Cycle(0); c < end; c++ {
			scriptedTraffic(b, c, false)
			b.AdvanceTo(c + 1)
			for _, p := range b.Drain() {
				log = append(log, fmt.Sprintf("%d@%d/%d", p.ID, p.DeliveredAt, p.Hops))
			}
		}
		return log
	}
	bare := detailedBackend(t)
	want, got := deliveries(bare), deliveries(h)
	if len(want) == 0 {
		t.Fatal("the bare network delivered nothing")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("a full sample window delivered %d packets differently from the bare network's %d", len(got), len(want))
	}
	if h.InFlight() != bare.InFlight() {
		t.Errorf("in flight: %d, bare network %d", h.InFlight(), bare.InFlight())
	}
	if n := tuned.Fit().ObservationCount(); n != len(got) {
		t.Errorf("tuned model observed %d packets, %d delivered", n, len(got))
	}
}

// pairedRunEnd is where FuzzPairedResume's runs stop; its traffic
// stops at pairedTrafficEnd so everything injected has drained by then.
const pairedTrafficEnd, pairedRunEnd = 400, 1200

// pairedDelivery is one system-visible delivery: the serial the
// traffic gave the packet, its delivery cycle and its hops.
type pairedDelivery struct {
	serial uint64
	at     sim.Cycle
	hops   int
}

// drivePaired plays the Q=1 coordinator over [from, to) with pooled
// packets: cycle c injects what (seed, c) draws, each packet carrying
// a serial unique in the run. It returns the deliveries and how many
// packets it injected.
func drivePaired(b *Paired, seed uint64, from, to sim.Cycle) ([]pairedDelivery, int) {
	var log []pairedDelivery
	injected := 0
	for c := from; c < to; c++ {
		if c < pairedTrafficEnd {
			rng := sim.NewRNG(seed, uint64(c))
			for i := rng.Intn(3); i > 0; i-- {
				p := b.NewPacket()
				p.Src = rng.Intn(16)
				p.Dst, p.Size = (p.Src+1+rng.Intn(15))%16, 1+4*rng.Intn(2)
				p.Kind, p.Value = 1, uint64(c)<<2|uint64(i)
				b.Inject(p, c)
				injected++
			}
		}
		b.AdvanceTo(c + 1)
		for _, p := range b.Drain() {
			log = append(log, pairedDelivery{p.Value, p.DeliveredAt, p.Hops})
			b.Recycle(p)
		}
	}
	return log, injected
}

// FuzzPairedResume cuts a hybrid or calibrated run at any cycle,
// seals it, opens the blob into a freshly built Paired and continues:
// the deliveries and the final bytes must be the uninterrupted run's,
// and every injected packet must reach the system exactly once.
// Period is drawn in 1..512, a hybrid's SampleLen in 1..Period. The
// seed corpus is testdata/fuzz/FuzzPairedResume.
func FuzzPairedResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, calibrated bool, period, sample uint16, seed uint64, cut uint16) {
		p := 1 + sim.Cycle(period)%512
		s := 1 + sim.Cycle(sample)%p
		stop := sim.Cycle(cut) % (pairedRunEnd + 1)
		build := func() *Paired {
			m := topology.NewMesh(4, 4, 1)
			tuned := abstractnet.NewTuned(abstractnet.NewContention(m, abstractnet.DefaultParams()), 256)
			net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(net.Close)
			b, err := NewHybrid(net, tuned, p, s)
			if calibrated {
				b, err = NewCalibrated(net, tuned, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		seal := func(b *Paired) []byte {
			blob, err := snapshot.Seal(0, func(c *snapshot.Codec) error {
				b.State(c, nil)
				return c.Err()
			})
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}

		ref := build()
		want, injected := drivePaired(ref, seed, 0, pairedRunEnd)

		head := build()
		got, n := drivePaired(head, seed, 0, stop)
		resumed := build()
		if err := snapshot.Open(seal(head), 0, func(c *snapshot.Codec) error {
			resumed.State(c, nil)
			return c.Err()
		}); err != nil {
			t.Fatalf("%s cut at %d: %v", resumed.Name(), stop, err)
		}
		tail, m := drivePaired(resumed, seed, stop, pairedRunEnd)
		got, n = append(got, tail...), n+m
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s cut at %d: deliveries differ from the uninterrupted run's", resumed.Name(), stop)
		}
		if !bytes.Equal(seal(resumed), seal(ref)) {
			t.Errorf("%s cut at %d: the resumed run ends in a different state", resumed.Name(), stop)
		}
		seen := make(map[uint64]bool, len(got))
		for _, d := range got {
			if seen[d.serial] {
				t.Fatalf("%s cut at %d: packet %#x delivered twice", resumed.Name(), stop, d.serial)
			}
			seen[d.serial] = true
		}
		if len(seen) != n || n != injected || resumed.InFlight() != 0 {
			t.Errorf("%s cut at %d: %d of %d injected packets delivered, %d in flight", resumed.Name(), stop, len(seen), n, resumed.InFlight())
		}
	})
}
