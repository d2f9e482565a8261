package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/abstractnet"
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
	b.(BackendStater).State(e.Codec(), nil, nil)
	return e.Finish()
}

// TestPooledBackendCapture: with deliveries pending in both calendar
// tiers and packets on the free list, a backend restored from the
// capture — a fresh one and a used one, whose own queue and free list
// must not survive — resumes to the uninterrupted run's deliveries and
// bytes, and so does the captured parent.
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

			fresh, used := build(t), build(t)
			driveBackend(used, 0, 40)
			for _, b := range []Backend{fresh, used} {
				d, err := snapshot.NewDecoder(direct, 0)
				if err != nil {
					t.Fatal(err)
				}
				b.(BackendStater).State(d.Codec(), nil, nil)
				if err := d.Finish(); err != nil {
					t.Fatal(err)
				}
				if got := encodeBackend(t, b); !bytes.Equal(got, direct) {
					t.Fatalf("restored backend re-encodes differently (first diff at byte %d)", firstDiff(got, direct))
				}
			}

			if fmt.Sprint(head) != fmt.Sprint(wantLog[:len(head)]) {
				t.Error("the run is not deterministic up to the capture")
			}
			for who, b := range map[string]Backend{"parent": parent, "restored into fresh": fresh, "restored into used": used} {
				if got, want := fmt.Sprint(driveBackend(b, mid, end)), fmt.Sprint(wantLog[len(head):]); got != want {
					t.Errorf("%s delivered differently from the uninterrupted run after cycle %d", who, mid)
				}
				if got := encodeBackend(t, b); !bytes.Equal(got, wantBytes) {
					t.Errorf("%s ends in a different state from the uninterrupted run (first diff at byte %d)", who, firstDiff(got, wantBytes))
				}
			}
		})
	}
}
