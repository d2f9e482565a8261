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

// Every packet network is a Backend as it stands, and so is every
// backend built over them.
var (
	_ Backend = (*noc.Network)(nil)
	_ Backend = (*abstractnet.Network)(nil)
	_ Backend = (*Paired)(nil)
	_ Backend = (*Recorder)(nil)
)

// everyBackend builds each backend the module has over a 4x4 mesh.
var everyBackend = map[string]func(t *testing.T) Backend{
	"abstract": func(*testing.T) Backend { return abstractBackend() },
	"contention": func(*testing.T) Backend {
		m := topology.NewMesh(4, 4, 1)
		return abstractnet.NewNetwork(abstractnet.NewContention(m, abstractnet.DefaultParams()))
	},
	"detailed": func(t *testing.T) Backend { return detailedBackend(t) },
	"hybrid": func(t *testing.T) Backend {
		m := topology.NewMesh(4, 4, 1)
		tuned := abstractnet.NewTuned(abstractnet.NewContention(m, abstractnet.DefaultParams()), 256)
		h, err := NewHybrid(detailedBackend(t), tuned, 200, 50)
		if err != nil {
			t.Fatal(err)
		}
		return h
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
	"recorder": func(t *testing.T) Backend { return NewRecorder(detailedBackend(t)) },
}

// scriptedTraffic injects cycle c's packets: a light random background,
// and every 150 cycles a 70-packet burst from one source, which NI
// serialization spreads over the next 350 cycles — deliveries well
// beyond the calendar's near tier beside ones inside it. Packets come
// from the backend's free list when pooled, from the heap otherwise.
func scriptedTraffic(b Backend, c sim.Cycle, pooled bool) {
	inject := func(s, d, size int) {
		p := &noc.Packet{}
		if pooled {
			p = b.NewPacket()
		}
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
// advance, drain and, when pooled, recycle. It returns one line per
// delivery.
func driveBackend(b Backend, from, to sim.Cycle, pooled bool) []string {
	var log []string
	for c := from; c < to; c++ {
		scriptedTraffic(b, c, pooled)
		b.AdvanceTo(c + 1)
		for _, p := range b.Drain() {
			log = append(log, fmt.Sprintf("%d:%d>%d@%d", p.ID, p.Src, p.Dst, p.DeliveredAt))
			if pooled {
				b.Recycle(p)
			}
		}
	}
	return log
}

// stater is the checkpointable part of b: a Recorder is captured
// through the backend it wraps.
func stater(b Backend) BackendStater {
	if r, ok := b.(*Recorder); ok {
		b = r.Backend
	}
	return b.(BackendStater)
}

func encodeBackend(t *testing.T, b Backend) []byte {
	t.Helper()
	blob, _ := snapshot.Seal(0, walkBackend(b))
	return blob
}

func walkBackend(b Backend) func(*snapshot.Codec) error {
	return func(c *snapshot.Codec) error { stater(b).State(c, nil); return nil }
}

// TestPooledBackendCapture: with deliveries pending and packets on the
// free list, a backend restored from the capture — a fresh one and a
// used one, whose own queue and free list must not survive — resumes
// to the uninterrupted run's deliveries and bytes, and so does the
// captured parent. Every backend is driven with and without pooling,
// and both match the one pooled reference run.
func TestPooledBackendCapture(t *testing.T) {
	const mid, end = 330, 900
	for name, build := range everyBackend {
		t.Run(name, func(t *testing.T) {
			ref := build(t)
			wantLog := driveBackend(ref, 0, end, true)
			wantBytes := encodeBackend(t, ref)

			for _, pooled := range []bool{true, false} {
				parent := build(t)
				head := driveBackend(parent, 0, mid, pooled)
				if spread := parent.InFlight(); spread < 40 {
					t.Fatalf("pooled=%v: only %d deliveries pending at the capture: the burst is not straddling the tiers", pooled, spread)
				}
				// A burst has drained, another is mid-flight.
				direct := encodeBackend(t, parent)

				fresh, used := build(t), build(t)
				driveBackend(used, 0, 40, pooled)
				for _, b := range []Backend{fresh, used} {
					if err := snapshot.Open(direct, 0, walkBackend(b)); err != nil {
						t.Fatal(err)
					}
					if got := encodeBackend(t, b); !bytes.Equal(got, direct) {
						t.Fatalf("pooled=%v: restored backend re-encodes differently (first diff at byte %d)", pooled, firstDiff(got, direct))
					}
				}

				if fmt.Sprint(head) != fmt.Sprint(wantLog[:len(head)]) {
					t.Errorf("pooled=%v: the run up to the capture differs from the reference", pooled)
				}
				for who, b := range map[string]Backend{"parent": parent, "restored into fresh": fresh, "restored into used": used} {
					if got, want := fmt.Sprint(driveBackend(b, mid, end, pooled)), fmt.Sprint(wantLog[len(head):]); got != want {
						t.Errorf("pooled=%v: %s delivered differently from the reference after cycle %d", pooled, who, mid)
					}
					if got := encodeBackend(t, b); !bytes.Equal(got, wantBytes) {
						t.Errorf("pooled=%v: %s ends in a different state from the reference (first diff at byte %d)", pooled, who, firstDiff(got, wantBytes))
					}
				}
			}
		})
	}
}
