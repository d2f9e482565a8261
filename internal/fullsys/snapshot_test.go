package fullsys

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// placementSystem is a four-tile machine that never ran, with plant
// applied to tile 0.
func placementSystem(t *testing.T, plant func(tile *Tile)) *System {
	t.Helper()
	sys, err := New(DefaultConfig(4), NewScript(make([][]Op, 4)), func(Msg, sim.Cycle) {})
	if err != nil {
		t.Fatal(err)
	}
	if plant != nil {
		plant(sys.Tile(0))
	}
	return sys
}

// decodeInto restores blob into a fresh machine and returns the error.
func decodeInto(t *testing.T, blob []byte) error {
	return snapshot.Open(blob, 0, walkSystem(placementSystem(t, nil)))
}

// TestDecodeRejectsStateBeyondBounds: a restore rejects a core's
// script position past the end of its op list and an L2 bank holding
// more lines than its capacity. No payload mutation of a co-simulation
// checkpoint reaches either check: those run synthetic workloads, not
// scripts, and a bank over its 16384-line default capacity needs more
// bytes than the whole checkpoint holds. Each case encodes two
// machines that differ in one field, finds it as the first byte where
// they differ, and rewrites it in the first blob: to a value its own
// machine accepts, and to one that makes the decoded state exceed
// what the target machine can hold.
func TestDecodeRejectsStateBeyondBounds(t *testing.T) {
	machine := func(t *testing.T, l2Lines, pos int) *System {
		cfg := DefaultConfig(4)
		cfg.L2Lines = l2Lines
		ops := make([][]Op, 4)
		ops[0] = make([]Op, 3)
		script := NewScript(ops)
		script.pos[0] = pos
		sys, err := New(cfg, script, func(Msg, sim.Cycle) {})
		if err != nil {
			t.Fatal(err)
		}
		for line := uint64(4); line <= 12; line += 4 { // three lines homed at tile 0
			sys.Tile(0).l2.put(line, 7, false)
		}
		return sys
	}
	for _, tc := range []struct {
		name          string
		a, b          *System // differ in the field
		good, bad     uint64
		goodL2, badL2 int // the L2 capacity of the machine each decodes into
		want          string
	}{
		{"script-position", machine(t, 16, 1), machine(t, 16, 2), 3, 4, 16, 16,
			"core 0 script position 4 outside 0..3"},
		{"l2-capacity", machine(t, 3, 0), machine(t, 4, 0), 3, 2, 3, 2,
			"L2 bank holds 3 lines, capacity 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob, other := encodeSystem(tc.a), encodeSystem(tc.b)
			at := 0
			for at < len(blob) && blob[at] == other[at] {
				at++
			}
			if at+8 > len(blob)-4 {
				t.Fatal("the field is not in the checkpoint")
			}
			decode := func(v uint64, l2Lines int) error {
				out := append([]byte(nil), blob...)
				binary.LittleEndian.PutUint64(out[at:], v)
				body := out[:len(out)-4]
				binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
				return snapshot.Open(out, 0, walkSystem(machine(t, l2Lines, 0)))
			}
			if err := decode(tc.good, tc.goodL2); err != nil {
				t.Fatalf("valid value %d rejected: %v", tc.good, err)
			}
			err := decode(tc.bad, tc.badL2)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("value %d: got %v, want an error containing %q", tc.bad, err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsMisplacedState: a restore rejects a line where the
// machine could never have put it — an L1 way holding a line of
// another set, a directory, L2 or victim-buffer line homed at another
// tile — and a directory entry naming a tile outside the machine as
// owner, sharer or transaction requester. Each case plants one field
// with two valid values, finds the field as the first byte where the
// two checkpoints differ, and rewrites it to a valid value (accepted)
// and to the misplaced one (rejected with the named check).
func TestDecodeRejectsMisplacedState(t *testing.T) {
	for _, tc := range []struct {
		name      string
		plant     func(tile *Tile, v uint64)
		a, b      uint64 // two valid values, differing in the low byte
		good, bad uint64
		want      string
	}{
		{"l1-set", func(tile *Tile, v uint64) {
			tile.l1.install(tile.l1.victim(v), v, l1Shared, 7)
		}, 64, 128, 192, 65, "L1 line 0x41 in set 0"},
		{"directory-home", func(tile *Tile, v uint64) { tile.dirLineOf(v) }, 4, 8, 12, 5, "directory line 0x5 is homed at tile 1"},
		{"l2-home", func(tile *Tile, v uint64) { tile.l2.put(v, 7, false) }, 4, 8, 12, 6, "L2 line 0x6 is homed at tile 2"},
		{"victim-buffer-home", func(tile *Tile, v uint64) {
			tile.victimBuf = append(tile.victimBuf, vbEntry{line: v, value: 7, outstanding: 1})
		}, 4, 8, 12, 7, "victim-buffer line 0x7 is homed at tile 3"},
		{"owner", func(tile *Tile, v uint64) {
			d := tile.dirLineOf(4)
			d.state, d.owner = dirEM, int32(v)
		}, 0, 1, 3, 4, "directory owner 4 outside [-1, 4)"},
		{"owner-beyond-int32", func(tile *Tile, v uint64) {
			d := tile.dirLineOf(4)
			d.state, d.owner = dirEM, int32(v)
		}, 0, 1, ^uint64(0), 1 << 32, "directory owner 4294967296 outside [-1, 4)"},
		{"sharer", func(tile *Tile, v uint64) {
			d := tile.dirLineOf(4)
			d.state = dirS
			tile.sharers.add(&d.sharers, 4, int(v))
		}, 0, 1, 2, ^uint64(0), "sharer -1 outside [0, 4)"},
		{"requester", func(tile *Tile, v uint64) { tile.dirLineOf(4).txn.req = int32(v) }, 0, 1, 2, 9, "transaction requester 9 outside [0, 4)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := encodeSystem(placementSystem(t, func(tile *Tile) { tc.plant(tile, tc.a) }))
			other := encodeSystem(placementSystem(t, func(tile *Tile) { tc.plant(tile, tc.b) }))
			at := 0
			for at < len(blob) && blob[at] == other[at] {
				at++
			}
			if at+8 > len(blob)-4 {
				t.Fatal("the planted field is not in the checkpoint")
			}
			patch := func(v uint64) []byte {
				out := append([]byte(nil), blob...)
				binary.LittleEndian.PutUint64(out[at:], v)
				body := out[:len(out)-4]
				binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
				return out
			}
			if err := decodeInto(t, patch(tc.good)); err != nil {
				t.Fatalf("valid value %#x rejected: %v", tc.good, err)
			}
			err := decodeInto(t, patch(tc.bad))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("misplaced value %#x: got %v, want an error containing %q", tc.bad, err, tc.want)
			}
		})
	}
}
