// Package snapshot implements the versioned, deterministic binary
// checkpoint format for the co-simulator.
//
// A checkpoint is a flat little-endian byte stream with a fixed
// envelope:
//
//	offset  size  field
//	0       8     magic "RECOSNAP"
//	8       4     format version (u32)
//	12      8     config digest (u64, FNV-64a over the run description)
//	20      ...   payload (explicit per-package field writes)
//	end-4   4     CRC32 (IEEE) over everything before it
//
// The payload is produced by explicit State(*Codec) methods in each
// simulator package, one body per type walked in either direction
// (codec.go) — state is enumerated in code, never via reflection — so
// the byte stream for a given simulation state is itself deterministic
// and can be compared or checked in as a golden file. The envelope makes the failure modes loud: wrong file type,
// wrong format version, bit corruption, and restoring into a different
// configuration are each distinct errors, detected before any field is
// decoded.
//
// Decoding uses a sticky error: after the first failure every getter
// returns a zero value and the error (with byte offset and the section
// context in effect) is reported by Err/Finish. Section markers are
// written into the stream itself, so a decode that drifts out of sync
// with the encode fails at the next section boundary with both names in
// the message instead of silently misreading fields.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"strings"
)

// Magic identifies a checkpoint stream.
const Magic = "RECOSNAP"

// FormatVersion is the checkpoint format produced by this build.
// Decoding any other version fails with ErrVersion.
//
// History: 1 — initial format; 2 — component-registry layout (memory
// oracles snapshotted per tile, calibration pairs via calib.Reciprocal
// sections); 3 — deflection routers carry an ejection counter; 4 — the
// GPU backend no longer serializes its kernel-launch counters (they
// became gating-dependent host-cost telemetry, not simulated state).
const FormatVersion uint32 = 4

const (
	headerLen  = len(Magic) + 4 + 8 // magic + version + config digest
	trailerLen = 4                  // CRC32 (IEEE)
	sectionTag = 0xA5               // marks a Section name in the stream
)

// Sentinel error categories, matchable with errors.Is. Every decode
// failure wraps exactly one of these with a descriptive message.
var (
	// ErrTruncated reports input shorter than its contents claim.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrBadMagic reports input that is not a checkpoint at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion reports a checkpoint from an incompatible format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrCorrupt reports a checksum mismatch or an internally
	// inconsistent stream (bad section marker, impossible count,
	// trailing garbage, out-of-range value).
	ErrCorrupt = errors.New("snapshot: corrupt input")
	// ErrConfigMismatch reports a checkpoint taken under a different
	// configuration digest than the one it is being restored into.
	ErrConfigMismatch = errors.New("snapshot: config mismatch")
)

// Digest hashes an ordered list of strings describing the run
// configuration (FNV-64a, NUL-separated). The same parts always digest
// to the same value, so a checkpoint can only be restored into a run
// built from an identical description.
func Digest(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Encoder appends fixed-width little-endian fields to a checkpoint
// under construction. Encoding cannot fail; Finish seals the stream.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a checkpoint with the standard envelope header and
// the given config digest.
func NewEncoder(digest uint64) *Encoder {
	e := &Encoder{buf: make([]byte, 0, 1<<12)}
	e.buf = append(e.buf, Magic...)
	e.U32(FormatVersion)
	e.U64(digest)
	return e
}

// Len reports the bytes written so far (header included).
func (e *Encoder) Len() int { return len(e.buf) }

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 writes a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 writes a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 writes a float64 by its exact IEEE-754 bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool writes a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes writes a u32 length prefix followed by the raw bytes.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) { e.Bytes([]byte(s)) }

// Section writes a named marker into the stream. The decoder verifies
// the same name at the same position, so encode/decode drift is caught
// at the next boundary instead of corrupting every later field.
func (e *Encoder) Section(name string) {
	e.U8(sectionTag)
	e.String(name)
}

// Finish appends the CRC32 trailer and returns the complete checkpoint.
// The encoder must not be used afterwards.
func (e *Encoder) Finish() []byte {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// Decoder reads a checkpoint sealed by Encoder.Finish. The envelope
// (magic, version, CRC, digest) is validated by NewDecoder before any
// field is read; field getters then use a sticky error, so a sequence
// of reads can be issued unconditionally and checked once via Err or
// Finish.
type Decoder struct {
	data []byte // payload region (envelope stripped)
	off  int
	err  error
	ctx  []string
}

// NewDecoder validates the envelope of a checkpoint and positions a
// decoder at the start of the payload. wantDigest is the config digest
// of the run being restored into; a mismatch fails with
// ErrConfigMismatch before any payload is touched.
func NewDecoder(data []byte, wantDigest uint64) (*Decoder, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes, smaller than the %d-byte envelope",
			ErrTruncated, len(data), headerLen+trailerLen)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: got %q, want %q — not a checkpoint",
			ErrBadMagic, data[:len(Magic)], Magic)
	}
	ver := binary.LittleEndian.Uint32(data[len(Magic):])
	if ver != FormatVersion {
		return nil, fmt.Errorf("%w: checkpoint has format version %d, this build reads version %d",
			ErrVersion, ver, FormatVersion)
	}
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: CRC32 %#08x does not match trailer %#08x",
			ErrCorrupt, got, want)
	}
	digest := binary.LittleEndian.Uint64(data[len(Magic)+4:])
	if digest != wantDigest {
		return nil, fmt.Errorf("%w: checkpoint was taken under config digest %#016x, restoring into %#016x",
			ErrConfigMismatch, digest, wantDigest)
	}
	return &Decoder{data: body[headerLen:]}, nil
}

// Err reports the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// Enter pushes a context label included in later error messages.
func (d *Decoder) Enter(label string) { d.ctx = append(d.ctx, label) }

// Leave pops the most recent context label.
func (d *Decoder) Leave() {
	if len(d.ctx) > 0 {
		d.ctx = d.ctx[:len(d.ctx)-1]
	}
}

func (d *Decoder) where() string {
	if len(d.ctx) == 0 {
		return ""
	}
	return " in " + strings.Join(d.ctx, "/")
}

// Failf records a decode failure wrapping ErrCorrupt, unless an error
// is already pending. Restore methods use it for semantic validation
// (out-of-range indices, impossible states).
func (d *Decoder) Failf(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d%s)",
			ErrCorrupt, fmt.Sprintf(format, args...), d.off, d.where())
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) || d.off+n < 0 {
		d.err = fmt.Errorf("%w: need %d bytes for %s at payload offset %d of %d%s",
			ErrTruncated, n, what, d.off, len(d.data), d.where())
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2, "u16")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 by its exact bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool; any byte other than 0 or 1 is corruption.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("bool byte is %#x, want 0 or 1", v)
		return false
	}
	return v == 1
}

// Bytes reads a length-prefixed byte slice. The length is validated
// against the remaining payload before allocation.
func (d *Decoder) Bytes() []byte {
	n := int(d.U32())
	b := d.take(n, "bytes body")
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Count reads a u32 element count and validates it against the
// remaining payload assuming each element occupies at least perItemMin
// bytes, so corrupt counts fail here instead of causing huge
// allocations or long garbage-decoding loops.
func (d *Decoder) Count(perItemMin int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if perItemMin < 1 {
		perItemMin = 1
	}
	if n > d.Remaining()/perItemMin {
		d.Failf("count %d needs at least %d bytes but only %d remain", n, n*perItemMin, d.Remaining())
		return 0
	}
	return n
}

// maxQuotedName bounds how much of a mismatched section name a decode
// error quotes: a corrupt length can make the "name" the rest of the
// payload.
const maxQuotedName = 64

// Section consumes a marker written by Encoder.Section and verifies its
// name, anchoring decode errors to the named region.
func (d *Decoder) Section(name string) {
	if tag := d.U8(); d.err == nil && tag != sectionTag {
		d.Failf("expected section marker for %q, found byte %#x — stream out of sync", name, tag)
		return
	}
	if got := d.take(int(d.U32()), "bytes body"); d.err == nil && string(got) != name {
		d.Failf("expected section %q, found a %d-byte section %q — stream out of sync",
			name, len(got), got[:min(len(got), maxQuotedName)])
	}
}

// Finish reports the sticky error if any, and otherwise verifies the
// payload was consumed exactly (trailing bytes are corruption).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing payload bytes after the last field",
			ErrCorrupt, len(d.data)-d.off)
	}
	return nil
}
