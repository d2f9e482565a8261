package noc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// injectSome pushes a deterministic trickle of traffic for one cycle.
func injectSome(inj func(*Packet, sim.Cycle), terms int, rng *sim.RNG, at sim.Cycle, vnets int) {
	for s := 0; s < terms; s++ {
		if rng.Bernoulli(0.10) {
			d := rng.Intn(terms - 1)
			if d >= s {
				d++
			}
			size := 1
			if rng.Bernoulli(0.5) {
				size = 5
			}
			inj(&Packet{Src: s, Dst: d, VNet: rng.Intn(vnets), Size: size}, at)
		}
	}
}

// netState fingerprints the externally observable state after a run.
func netState(n *Network, drained []*Packet) string {
	s := fmt.Sprintf("cyc=%v inj=%d del=%d flits=%d lat=%x p95=%x hops=%x buffered=%d ",
		n.Cycle(), n.Injected(), n.Delivered(), n.FlitsSwitched(),
		n.Tracker().Mean(), n.Tracker().Percentile(95), n.Tracker().MeanHops(),
		n.BufferedFlits())
	for _, p := range drained {
		s += fmt.Sprintf("[%d:%d@%v h%d]", p.ID, p.Dst, p.DeliveredAt, p.Hops)
	}
	return s
}

// TestNetworkSnapshotRoundTrip checkpoints a VC network mid-flight —
// flits in buffers and on links, packets queued and mid-serialization
// — restores into a fresh instance, and requires both to finish the
// run bit-identically.
func TestNetworkSnapshotRoundTrip(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	build := func() *Network { return mustNet(t, DefaultConfig(), m, topology.NewXY(m)) }

	run := func(n *Network, rng *sim.RNG, cycles int) []*Packet {
		var out []*Packet
		for i := 0; i < cycles; i++ {
			injectSome(n.Inject, m.NumTerminals(), rng, n.Cycle(), n.Cfg().VNets)
			n.Step()
			out = append(out, append([]*Packet(nil), n.Drain()...)...)
		}
		return out
	}

	// Reference: one uninterrupted run.
	ref := build()
	refRNG := sim.NewRNG(7, 1)
	refDrained := run(ref, refRNG, 120)
	refDrained = append(refDrained, run(ref, refRNG, 200)...)
	want := netState(ref, refDrained)

	// Checkpointed: run halfway, snapshot, restore, run the rest.
	a := build()
	rng := sim.NewRNG(7, 1)
	drainedA := run(a, rng, 120)
	if a.InFlight() == 0 {
		t.Fatal("checkpoint taken with nothing in flight; test would be vacuous")
	}
	e := snapshot.NewEncoder(1)
	a.State(e.Codec(), nil, nil)
	blob := e.Finish()

	b := build()
	d, err := snapshot.NewDecoder(blob, 1)
	if err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	tracked := 0
	if b.State(d.Codec(), nil, func(*Packet) { tracked++ }); d.Err() != nil {
		t.Fatalf("restore: %v", d.Err())
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("trailing data: %v", err)
	}
	if tracked == 0 {
		t.Fatal("track callback never invoked despite in-flight packets")
	}
	drainedB := append(drainedA, run(b, rng, 200)...)
	if got := netState(b, drainedB); got != want {
		t.Errorf("restored run diverged\nwant %.200s\ngot  %.200s", want, got)
	}

	// The same snapshot must also be byte-stable across encodes.
	e2 := snapshot.NewEncoder(1)
	a.State(e2.Codec(), nil, nil)
	if string(e2.Finish()) != string(blob) {
		t.Error("re-encoding the same network state produced different bytes")
	}
}

// TestDeflectionSnapshotRoundTrip is the same property for the
// bufferless network, whose reassembly map is pointer-keyed.
func TestDeflectionSnapshotRoundTrip(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	build := func() *Deflection {
		n, err := NewDeflection(DefaultDeflectConfig(), m)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	run := func(n *Deflection, rng *sim.RNG, cycles int) []*Packet {
		var out []*Packet
		for i := 0; i < cycles; i++ {
			injectSome(n.Inject, m.NumTerminals(), rng, n.Cycle(), 1)
			n.Step()
			out = append(out, append([]*Packet(nil), n.Drain()...)...)
		}
		return out
	}

	state := func(n *Deflection, drained []*Packet) string {
		s := fmt.Sprintf("cyc=%v inj=%d del=%d defl=%d hops=%d lat=%x ",
			n.Cycle(), n.Injected(), n.Delivered(), n.Deflections(), n.FlitHops(),
			n.Tracker().Mean())
		for _, p := range drained {
			s += fmt.Sprintf("[%d:%d@%v]", p.ID, p.Dst, p.DeliveredAt)
		}
		return s
	}

	ref := build()
	refRNG := sim.NewRNG(11, 1)
	refDrained := run(ref, refRNG, 100)
	refDrained = append(refDrained, run(ref, refRNG, 200)...)
	want := state(ref, refDrained)

	a := build()
	rng := sim.NewRNG(11, 1)
	drainedA := run(a, rng, 100)
	if a.InFlight() == 0 {
		t.Fatal("checkpoint taken with nothing in flight; test would be vacuous")
	}
	e := snapshot.NewEncoder(2)
	a.State(e.Codec(), nil, nil)
	blob := e.Finish()

	b := build()
	d, err := snapshot.NewDecoder(blob, 2)
	if err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if b.State(d.Codec(), nil, nil); d.Err() != nil {
		t.Fatalf("restore: %v", d.Err())
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("trailing data: %v", err)
	}
	drainedB := append(drainedA, run(b, rng, 200)...)
	if got := state(b, drainedB); got != want {
		t.Errorf("restored run diverged\nwant %.200s\ngot  %.200s", want, got)
	}

	e2 := snapshot.NewEncoder(2)
	a.State(e2.Codec(), nil, nil)
	if string(e2.Finish()) != string(blob) {
		t.Error("re-encoding the same deflection state produced different bytes")
	}
}

// TestRestoreRejectsOutOfRangeIfaceRR overwrites the first NI's
// round-robin pointer in an otherwise valid snapshot (and re-seals the
// CRC, so only the semantic check can catch it): restore must fail with
// ErrCorrupt naming the field, not accept a pointer that would index
// past the vnet queues.
func TestRestoreRejectsOutOfRangeIfaceRR(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	n := mustNet(t, DefaultConfig(), m, topology.NewXY(m))
	e := snapshot.NewEncoder(1)
	n.State(e.Codec(), nil, nil)
	blob := e.Finish()

	// An idle network's first iface record is one empty-queue count (a
	// u32) per vnet, then rr as an i64, right after the section marker.
	at := bytes.Index(blob, []byte("ifaces"))
	if at < 0 {
		t.Fatal("no ifaces section in the snapshot")
	}
	at += len("ifaces") + 4*n.Cfg().VNets
	if got := binary.LittleEndian.Uint64(blob[at:]); got != 0 {
		t.Fatalf("expected the idle rr pointer (0) at offset %d, found %d", at, got)
	}
	binary.LittleEndian.PutUint64(blob[at:], uint64(n.Cfg().VNets))
	body := blob[:len(blob)-4]
	binary.LittleEndian.PutUint32(blob[len(body):], crc32.ChecksumIEEE(body))

	d, err := snapshot.NewDecoder(blob, 1)
	if err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	mustNet(t, DefaultConfig(), m, topology.NewXY(m)).State(d.Codec(), nil, nil)
	if err = d.Err(); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "iface rr pointer") {
		t.Fatalf("restore with rr = VNets returned %v, want ErrCorrupt naming the iface rr pointer", err)
	}
}
