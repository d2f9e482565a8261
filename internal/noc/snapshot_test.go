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
	blob := encodeNet(a)

	b := build()
	tracked := 0
	if err := snapshot.Open(blob, 1, func(c *snapshot.Codec) error {
		b.State(c, func(*Packet) { tracked++ })
		return nil
	}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if tracked == 0 {
		t.Fatal("track callback never invoked despite in-flight packets")
	}
	drainedB := append(drainedA, run(b, rng, 200)...)
	if got := netState(b, drainedB); got != want {
		t.Errorf("restored run diverged\nwant %.200s\ngot  %.200s", want, got)
	}

	// The same snapshot must also be byte-stable across encodes.
	if string(encodeNet(a)) != string(blob) {
		t.Error("re-encoding the same network state produced different bytes")
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
	blob := encodeNet(n)

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

	err := snapshot.Open(blob, 1, walkNet(mustNet(t, DefaultConfig(), m, topology.NewXY(m))))
	if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "iface rr pointer") {
		t.Fatalf("restore with rr = VNets returned %v, want ErrCorrupt naming the iface rr pointer", err)
	}
}

// TestPacketStateCarriesPayload: a packet's payload is part of its own
// description, so it survives the walk with the rest of the packet.
func TestPacketStateCarriesPayload(t *testing.T) {
	want := Packet{ID: 9, Src: 1, Dst: 2, VNet: 1, Size: 5, Hops: 3, Kind: 7, Line: 0x40, Value: 11}
	blob, err := snapshot.Seal(1, func(c *snapshot.Codec) error { want.State(c); return nil })
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := snapshot.Open(blob, 1, func(c *snapshot.Codec) error { got.State(c); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}

// walkNet is the walk of n's state with no tracking.
func walkNet(n *Network) func(*snapshot.Codec) error {
	return func(c *snapshot.Codec) error { n.State(c, nil); return nil }
}

// encodeNet seals n's state.
func encodeNet(n *Network) []byte {
	blob, _ := snapshot.Seal(1, walkNet(n))
	return blob
}
