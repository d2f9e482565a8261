package repro

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// The envelope fuzzer (internal/snapshot's FuzzDecoder) stops at the
// CRC: a flipped payload byte never reaches a restore body. These
// tests re-seal the CRC after mutating, so the per-package validation
// (state enums, endpoints, counts, packet references, geometry) is
// what the mutation meets.

const (
	envelopeHeader  = len(snapshot.Magic) + 4 + 8
	envelopeTrailer = 4
)

var (
	midRunOnce  sync.Once
	midRunBlobs [][]byte
)

// midRunCases returns the checkpoint cases and their wireAt blobs,
// built once per process.
func midRunCases(t testing.TB) ([]ckptCase, [][]byte) {
	cases := checkpointCases()
	midRunOnce.Do(func() {
		for _, c := range cases {
			midRunBlobs = append(midRunBlobs, midRunBlob(t, c))
		}
	})
	if len(midRunBlobs) != len(cases) {
		t.Fatal("mid-run blobs were not built")
	}
	return cases, midRunBlobs
}

// mutatePayload returns a copy of blob with one payload position
// rewritten and the CRC re-sealed. kind selects the rewrite: set a
// byte, flip one bit, or overwrite a u32 or u64 (the widths counts,
// references and indices are stored in).
func mutatePayload(blob []byte, offset uint32, kind uint8, value uint64) []byte {
	out := append([]byte(nil), blob...)
	payload := out[envelopeHeader : len(out)-envelopeTrailer]
	at := payload[int(offset)%len(payload):]
	switch kind % 4 {
	case 0:
		at[0] = byte(value)
	case 1:
		at[0] ^= 1 << (value % 8)
	case 2:
		if len(at) >= 4 {
			binary.LittleEndian.PutUint32(at, uint32(value))
		}
	case 3:
		if len(at) >= 8 {
			binary.LittleEndian.PutUint64(at, value)
		}
	}
	body := out[:len(out)-envelopeTrailer]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// decodeMutated decodes one mutated blob into a freshly built twin and
// reports whether the restore accepted it. Whatever the verdict, the
// decode must not panic and must not allocate out of proportion to the
// blob (a corrupt count must fail before it sizes anything); an
// accepted state must encode again.
func decodeMutated(t testing.TB, c ckptCase, blob []byte, offset uint32, kind uint8, value uint64) bool {
	t.Helper()
	mutated := mutatePayload(blob, offset, kind, value)
	// Closed here, not by t.Cleanup: a table-driven caller builds a
	// thousand twins under one t.
	twin, err := BuildCosim(ckptConfig(c), c.mode, workload.NewFFT(16, 250, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = ckpt.Decode(mutated, twin, 1)
	runtime.ReadMemStats(&after)
	// An intact decode allocates under half the blob's size; the worst
	// mutation measured over the committed seeds and a minute of
	// fuzzing allocated 2.05x (a tile geometry mismatch reached after
	// most of the payload decoded). A count that sized a slice
	// unchecked would ask for gigabytes.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(blob)); got > limit {
		t.Errorf("%s: decode of a %d-byte blob mutated at %d (kind %d, value %#x) allocated %d bytes, limit %d",
			c.name, len(blob), offset, kind%4, value, got, limit)
	}
	if err != nil {
		return false
	}
	if _, err := ckpt.Encode(twin, 1); err != nil {
		t.Errorf("%s: accepted state does not encode: %v", c.name, err)
	}
	return true
}

// payloadSeed is one committed mutation and the verdict the restore
// bodies gave it when the table was generated.
type payloadSeed struct {
	caseIdx int
	offset  uint32
	kind    uint8
	value   uint64
	accept  bool
}

const payloadSeedPath = "testdata/payload-seeds.txt"

// payloadSeeds loads the committed mutations, one "case offset kind
// value verdict" line each: sixty per checkpoint case, twenty-one
// placed by hand, nine per case placed by hand, and the Kind seeds.
// The sixty were found on the code that preceded the bidirectional
// codec by recording the offset and width of every field an intact
// decode reads, then rewriting the first, middle and last field of
// every distinct read site with boundary values of its width: per
// case, one mutation for each distinct rejection (up to forty-five)
// and the rest accepted ones. Of the twenty-one, one sits on the
// memory fit's window count (one pair over capacity), three on each
// calibrated case's shadow count, which must equal the detailed
// network's injection count (off by one and a flipped low bit,
// rejected, and rewritten to itself, accepted), and fourteen on the
// memory-oracle requests and the packets' payloads: requester tags and
// message types out of range, arrivals out of order. The nine rewrite
// the first, middle and last directory transaction kind (just out of
// range, far out of range, the largest valid kind, the top bit set)
// and the line of the first, middle and last held L1 way (into another
// set by a low bit or a zeroed low word, and to another tag in the
// same set, which decode). The Kind seeds set the Kind of the first
// packet of a detailed network that carries messages, and of the first
// abstract pending packet, to 0 and one past the last message type:
// both rejected.
//
// When format version 5 wrote each fact once, every seed moved to the
// same field of the new layout, found by matching the decoder's field
// reads across the two versions; a seed on a deleted copy moved to the
// fact it repeated (a message's endpoints and type to the packet's own
// and its Kind, a memory message to its request, an empty L1 way to
// the nearest held one), and a just-out-of-range L1 state (4) became
// the first flag byte outside the flag bits (0x10). Offsets are
// positions in the blobs TestWireDigests pins.
func payloadSeeds(t testing.TB, cases []ckptCase) []payloadSeed {
	t.Helper()
	raw, err := os.ReadFile(payloadSeedPath)
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[string]int, len(cases))
	for i, c := range cases {
		index[c.name] = i
	}
	var seeds []payloadSeed
	for n, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var (
			s       payloadSeed
			name    string
			verdict string
		)
		if _, err := fmt.Sscanf(line, "%s %d %d %v %s", &name, &s.offset, &s.kind, &s.value, &verdict); err != nil {
			t.Fatalf("%s:%d: %v", payloadSeedPath, n+1, err)
		}
		i, ok := index[name]
		if !ok || (verdict != "accept" && verdict != "reject") {
			t.Fatalf("%s:%d: unknown case or verdict in %q", payloadSeedPath, n+1, line)
		}
		s.caseIdx, s.accept = i, verdict == "accept"
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzCheckpointPayload mutates one payload position of a case's
// mid-run checkpoint, re-seals the CRC and restores it into a fresh
// twin: an error or a usable state, never a panic or a runaway
// allocation. A rewrite that leaves the payload as it was must be
// accepted: every verdict is judged against that intact decode. Plain
// `go test` replays the committed seed set, then one intact seed per
// case (its first payload byte rewritten to itself).
func FuzzCheckpointPayload(f *testing.F) {
	cases, blobs := midRunCases(f)
	for _, s := range payloadSeeds(f, cases) {
		f.Add(uint8(s.caseIdx), s.offset, s.kind, s.value)
	}
	for i, blob := range blobs {
		f.Add(uint8(i), uint32(0), uint8(0), uint64(blob[envelopeHeader]))
	}
	f.Fuzz(func(t *testing.T, caseIdx uint8, offset uint32, kind uint8, value uint64) {
		i := int(caseIdx) % len(cases)
		accepted := decodeMutated(t, cases[i], blobs[i], offset, kind, value)
		if !accepted && bytes.Equal(mutatePayload(blobs[i], offset, kind, value), blobs[i]) {
			t.Errorf("%s: an unchanged payload (rewrite at %d, kind %d, value %#x) was rejected", cases[i].name, offset, kind%4, value)
		}
	})
}

// TestPayloadMutationVerdicts holds the restore bodies to the verdict
// committed beside every seed: validation was neither lost (a
// rejection now accepted) nor invented (the reverse) since the table
// was generated. -update-golden rewrites the verdict column.
func TestPayloadMutationVerdicts(t *testing.T) {
	cases, blobs := midRunCases(t)
	seeds := payloadSeeds(t, cases)
	rejected, accepted := make([]int, len(cases)), make([]int, len(cases))
	var table strings.Builder
	for _, s := range seeds {
		c := cases[s.caseIdx]
		accept := decodeMutated(t, c, blobs[s.caseIdx], s.offset, s.kind, s.value)
		verdict := "reject"
		if accept {
			verdict = "accept"
			accepted[s.caseIdx]++
		} else {
			rejected[s.caseIdx]++
		}
		if accept != s.accept && !*updateGolden {
			t.Errorf("%s: mutation at %d (kind %d, value %#x) is now a %s", c.name, s.offset, s.kind, s.value, verdict)
		}
		fmt.Fprintf(&table, "%s %d %d %#x %s\n", c.name, s.offset, s.kind, s.value, verdict)
	}
	for i, c := range cases {
		t.Logf("%s: %d rejected, %d accepted", c.name, rejected[i], accepted[i])
	}
	if *updateGolden {
		if err := os.WriteFile(payloadSeedPath, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
