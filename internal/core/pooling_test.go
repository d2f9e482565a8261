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

// The backends whose delivery queue is the calendar queue and whose
// packets are pooled: state capture must not see either.
var pooledBackends = map[string]func(t *testing.T) Backend{
	"abstract": func(*testing.T) Backend { return abstractBackend() },
	"contention": func(*testing.T) Backend {
		m := topology.NewMesh(4, 4, 1)
		return NewAbstract(abstractnet.NewNetwork(abstractnet.NewContention(m, abstractnet.DefaultParams())))
	},
	"calibrated": func(t *testing.T) Backend {
		m := topology.NewMesh(4, 4, 1)
		tuned := abstractnet.NewTuned(abstractnet.NewContention(m, abstractnet.DefaultParams()), 256)
		cal, err := NewCalibrated(detailedBackend(t), tuned, 32)
		if err != nil {
			t.Fatal(err)
		}
		return cal
	},
}

// scriptedTraffic injects cycle c's packets: a light random background,
// and every 150 cycles a 70-packet burst from one source, which NI
// serialization spreads over the next 350 cycles — deliveries well
// beyond the calendar's near tier beside ones inside it.
func scriptedTraffic(b Backend, c sim.Cycle) {
	src, _ := b.(packetSource)
	inject := func(s, d, size int) {
		p := src.NewPacket()
		p.Src, p.Dst, p.Size = s, d, size
		b.Inject(p, c)
	}
	rng := sim.NewRNG(uint64(c), 3)
	for i := rng.Intn(3); i > 0; i-- {
		s := rng.Intn(16)
		inject(s, (s+1+rng.Intn(15))%16, 1+4*rng.Intn(2))
	}
	if c%150 == 20 {
		s := int(c/150) % 16
		for i := 0; i < 70; i++ {
			inject(s, (s+5)%16, 5)
		}
	}
}

// driveBackend plays the Q=1 coordinator over [from, to): inject,
// advance, drain, recycle. It returns one line per delivery.
func driveBackend(b Backend, from, to sim.Cycle) []string {
	sink, _ := b.(packetRecycler)
	var log []string
	for c := from; c < to; c++ {
		scriptedTraffic(b, c)
		b.AdvanceTo(c + 1)
		for _, p := range b.Drain() {
			log = append(log, fmt.Sprintf("%d:%d>%d@%d", p.ID, p.Src, p.Dst, p.DeliveredAt))
			sink.Recycle(p)
		}
	}
	return log
}

func encodeBackend(t *testing.T, b Backend) []byte {
	t.Helper()
	e := snapshot.NewEncoder(0)
	b.(BackendStater).SnapshotTo(e, nil)
	return e.Finish()
}

// TestPooledBackendCapture: with deliveries pending in both calendar
// tiers and packets on the free list, a fork encodes to the parent's
// bytes, a restored backend resumes to the uninterrupted run's
// deliveries and bytes, and a forked child does the same while its
// parent keeps stepping on another goroutine (data-race proof under
// -race: the free list and the queue buckets are per network).
func TestPooledBackendCapture(t *testing.T) {
	const mid, end = 330, 900
	for name, build := range pooledBackends {
		t.Run(name, func(t *testing.T) {
			ref := build(t)
			wantLog := driveBackend(ref, 0, end)
			wantBytes := encodeBackend(t, ref)

			parent := build(t)
			head := driveBackend(parent, 0, mid)
			if spread := parent.InFlight(); spread < 40 {
				t.Fatalf("only %d deliveries pending at the capture: the burst is not straddling the tiers", spread)
			}
			// A burst has drained and been recycled, another is mid-flight.
			direct := encodeBackend(t, parent)

			fb, err := parent.(BackendForker).ForkBackend(noc.NewPacketRemap())
			if err != nil {
				t.Fatal(err)
			}
			child := fb.(Backend)
			defer child.Close()
			if got := encodeBackend(t, child); !bytes.Equal(got, direct) {
				t.Fatalf("fork encodes differently from its parent (first diff at byte %d)", firstDiff(got, direct))
			}

			resumed := build(t)
			driveBackend(resumed, 0, 40) // a used target: its own queue and free list must not survive
			d, err := snapshot.NewDecoder(direct, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.(BackendStater).RestoreFrom(d, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}

			childLog := make(chan []string)
			go func() { childLog <- driveBackend(child, mid, end) }()
			parentLog := append(head, driveBackend(parent, mid, end)...)
			tails := map[string][]string{
				"parent":  parentLog[len(head):],
				"child":   <-childLog,
				"resumed": driveBackend(resumed, mid, end),
			}
			for who, tail := range tails {
				if got, want := fmt.Sprint(tail), fmt.Sprint(wantLog[len(head):]); got != want {
					t.Errorf("%s delivered differently from the uninterrupted run after cycle %d", who, mid)
				}
			}
			if fmt.Sprint(head) != fmt.Sprint(wantLog[:len(head)]) {
				t.Error("the run is not deterministic up to the capture")
			}
			for who, b := range map[string]Backend{"parent": parent, "child": child, "resumed": resumed} {
				if got := encodeBackend(t, b); !bytes.Equal(got, wantBytes) {
					t.Errorf("%s ends in a different state from the uninterrupted run (first diff at byte %d)", who, firstDiff(got, wantBytes))
				}
			}
		})
	}
}

// TestFreeListIsPerNetwork: a fork starts with an empty free list — it
// never hands out a packet its parent could also hand out.
func TestFreeListIsPerNetwork(t *testing.T) {
	for name, build := range pooledBackends {
		t.Run(name, func(t *testing.T) {
			parent := build(t)
			driveBackend(parent, 0, 200)
			fb, err := parent.(BackendForker).ForkBackend(noc.NewPacketRemap())
			if err != nil {
				t.Fatal(err)
			}
			defer fb.(Backend).Close()
			mine := map[*noc.Packet]bool{}
			for i := 0; i < 64; i++ {
				mine[parent.(packetSource).NewPacket()] = true
			}
			for i := 0; i < 64; i++ {
				if p := fb.(packetSource).NewPacket(); mine[p] {
					t.Fatalf("fork handed out packet %p, which is on its parent's free list", p)
				}
			}
		})
	}
}
