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
// Seal writes the envelope around a walk and Open checks it before
// walking the payload back. Decoding uses a sticky error: after the
// first failure every walk reads a zero value and the error (with byte
// offset and the section context in effect) is what Open reports.
// Section markers are written into the stream itself, so a decode that
// drifts out of sync with the encode fails at the next section boundary
// with both names in the message instead of silently misreading fields.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
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
// became gating-dependent host-cost telemetry, not simulated state);
// 5 — each fact once, at its own width: a packet walks its payload as
// its own fields, a DRAM request is walked once, the L1 writes only
// the ways it holds, and narrow NoC fields keep their width.
const FormatVersion uint32 = 5

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

// Seal walks a state into a new checkpoint under the given config
// digest and returns it sealed: the envelope header, the fields the
// walk writes, the CRC32 trailer. A walk that fails yields its error
// and no checkpoint.
func Seal(digest uint64, walk func(*Codec) error) ([]byte, error) {
	c := &Codec{buf: make([]byte, 0, 1<<12)}
	c.buf = append(c.buf, Magic...)
	version := FormatVersion
	c.U32(&version)
	c.U64(&digest)
	if err := walk(c); err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint32(c.buf, crc32.ChecksumIEEE(c.buf)), nil
}

// Open validates the envelope of a checkpoint sealed by Seal, walks
// its payload back into a state, and checks the walk consumed the
// payload exactly (trailing bytes are corruption). wantDigest is the
// config digest of the run being restored into; a mismatch fails with
// ErrConfigMismatch before any payload is touched. The error is the
// first failure: envelope, walk, or trailing bytes.
func Open(data []byte, wantDigest uint64, walk func(*Codec) error) error {
	if len(data) < headerLen+trailerLen {
		return fmt.Errorf("%w: %d bytes, smaller than the %d-byte envelope",
			ErrTruncated, len(data), headerLen+trailerLen)
	}
	if string(data[:len(Magic)]) != Magic {
		return fmt.Errorf("%w: got %q, want %q — not a checkpoint",
			ErrBadMagic, data[:len(Magic)], Magic)
	}
	ver := binary.LittleEndian.Uint32(data[len(Magic):])
	if ver != FormatVersion {
		return fmt.Errorf("%w: checkpoint has format version %d, this build reads version %d",
			ErrVersion, ver, FormatVersion)
	}
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("%w: CRC32 %#08x does not match trailer %#08x",
			ErrCorrupt, got, want)
	}
	digest := binary.LittleEndian.Uint64(data[len(Magic)+4:])
	if digest != wantDigest {
		return fmt.Errorf("%w: checkpoint was taken under config digest %#016x, restoring into %#016x",
			ErrConfigMismatch, digest, wantDigest)
	}
	c := &Codec{buf: body[headerLen:], dec: true}
	if err := walk(c); err != nil {
		return err
	}
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes after the last field",
			ErrCorrupt, len(c.buf)-c.off)
	}
	return nil
}
