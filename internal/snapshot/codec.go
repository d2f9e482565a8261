package snapshot

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Codec walks a state description in one of two directions: encoding
// it appends every field it is shown to the checkpoint under
// construction, decoding it reads them back into the same variables.
// A component describes its state once, as a State(c *Codec) body of
// field walks, and that one body is both its snapshot and its restore
// — there is no second body to keep in step with the first.
//
// Seal and Open make the only codecs, and the codec is the only reader
// and writer of the wire: every walk below has one body, in which one
// test of the direction picks the append or the read. Work that only
// one direction needs sits behind Decoding(): allocation, re-seating
// and validation of what was just read on one side, sorted or collected
// views of live structures on the other.
type Codec struct {
	buf []byte // encoding: the checkpoint so far; decoding: the payload
	off int    // decoding: the read position in buf
	dec bool
	err error   // the first decode failure
	ctx []frame // Enter contexts, decoding only
}

// frame is one Enter context, formatted only when a decode fails.
type frame struct {
	name string
	idx  [2]int
	n    int
}

// Stater is implemented by components that describe their mutable
// state to a Codec.
type Stater interface {
	State(c *Codec)
}

// Decoding reports the direction: true when the walk fills the state
// from a checkpoint, false when it writes the state out.
func (c *Codec) Decoding() bool { return c.dec }

// Err reports the first decode failure, or nil. Encoding cannot fail.
func (c *Codec) Err() error { return c.err }

// Failf reports a state that fails its own validation. Decoding, that
// is corrupt input: the failure is recorded wrapping ErrCorrupt, with
// the payload offset and the Enter context, unless one is already
// pending. Encoding, it is a bug in the simulator, and writing a
// checkpoint that could never be read back would only hide it: Failf
// panics.
func (c *Codec) Failf(format string, args ...interface{}) {
	if !c.dec {
		panic("snapshot: encoding invalid state: " + fmt.Sprintf(format, args...))
	}
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s (offset %d%s)",
			ErrCorrupt, fmt.Sprintf(format, args...), c.off, c.where())
	}
}

// Enter pushes the context label name[idx,...], of at most two
// indices, onto decode error messages until the matching Leave.
// Encoding, it costs nothing; decoding, the label is formatted only if
// the decode fails.
func (c *Codec) Enter(name string, idx ...int) {
	if c.dec {
		f := frame{name: name}
		f.n = copy(f.idx[:], idx)
		c.ctx = append(c.ctx, f)
	}
}

// Leave pops the most recent Enter.
func (c *Codec) Leave() {
	if len(c.ctx) > 0 {
		c.ctx = c.ctx[:len(c.ctx)-1]
	}
}

func (c *Codec) where() string {
	if len(c.ctx) == 0 {
		return ""
	}
	labels := make([]string, len(c.ctx))
	for i, f := range c.ctx {
		labels[i] = f.name + strings.ReplaceAll(fmt.Sprint(f.idx[:f.n]), " ", ",")
	}
	return " in " + strings.Join(labels, "/")
}

// zeros is what a fixed-width walk reads after a decode failure.
var zeros [8]byte

// take consumes the next n payload bytes for a decoding walk. Short of
// them it records ErrTruncated, naming what was being read. After any
// failure it consumes nothing and returns zero bytes, as many as a
// fixed-width field needs (n ≤ 8), so the walk reads a zero value.
func (c *Codec) take(n int, what string) []byte {
	if c.err == nil && n >= 0 && c.off+n <= len(c.buf) && c.off+n >= 0 {
		c.off += n
		return c.buf[c.off-n : c.off]
	}
	if c.err == nil {
		c.err = fmt.Errorf("%w: need %d bytes for %s at payload offset %d of %d%s",
			ErrTruncated, n, what, c.off, len(c.buf), c.where())
	}
	return zeros[:min(max(n, 0), len(zeros))]
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if c.dec {
		*p = c.take(1, "u8")[0]
	} else {
		c.buf = append(c.buf, *p)
	}
}

// U32 walks a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if c.dec {
		*p = binary.LittleEndian.Uint32(c.take(4, "u32"))
	} else {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
	}
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.dec {
		*p = binary.LittleEndian.Uint64(c.take(8, "u64"))
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	}
}

// Int walks an int as an int64.
func (c *Codec) Int(p *int) { As64(c, p) }

// F64 walks a float64 by its exact IEEE-754 bit pattern.
func (c *Codec) F64(p *float64) {
	v := math.Float64bits(*p)
	if c.U64(&v); c.dec {
		*p = math.Float64frombits(v)
	}
}

// Bool walks a bool as one byte; decoding, any byte other than 0 or 1
// is corruption.
func (c *Codec) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	if c.U8(&v); c.dec {
		if v > 1 {
			c.Failf("bool byte is %#x, want 0 or 1", v)
		}
		*p = v == 1
	}
}

// String walks a string as a u32 length prefix and its bytes.
func (c *Codec) String(p *string) {
	n := uint32(len(*p))
	if c.U32(&n); !c.dec {
		c.buf = append(c.buf, *p...)
	} else if b := c.take(int(n), "bytes body"); c.err == nil {
		*p = string(b)
	} else {
		*p = ""
	}
}

// maxQuotedName bounds how much of a mismatched section name a decode
// error quotes: a corrupt length can make the "name" the rest of the
// payload.
const maxQuotedName = 64

// Section walks a named marker: a tag byte, then the name as String
// writes it. Decoding verifies the same name at the same position, so
// a decode that drifts out of step with the encode fails at the next
// boundary, with both names in the message, instead of misreading
// every later field.
func (c *Codec) Section(name string) {
	tag, n := uint8(sectionTag), uint32(len(name))
	if c.U8(&tag); c.err == nil && tag != sectionTag {
		c.Failf("expected section marker for %q, found byte %#x — stream out of sync", name, tag)
		return
	}
	if c.U32(&n); !c.dec {
		c.buf = append(c.buf, name...)
	} else if got := c.take(int(n), "bytes body"); c.err == nil && string(got) != name {
		c.Failf("expected section %q, found a %d-byte section %q — stream out of sync",
			name, len(got), got[:min(len(got), maxQuotedName)])
	}
}

// integer is any integer type a field may have in memory.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// As8, As16, As32 and As64 walk an integer field of any named or
// narrower type at the given wire width: the value is converted to
// the wire's unsigned word on the way out (sign-extending a signed
// field) and truncated back on the way in, exactly as the explicit
// conversions uint64(v) / T(word) would. The field is only ever
// written when decoding.
func As8[T integer](c *Codec, p *T) {
	v := uint8(*p)
	if c.U8(&v); c.dec {
		*p = T(v)
	}
}

// As16 walks an integer field as a little-endian uint16; see As8.
func As16[T integer](c *Codec, p *T) {
	if c.dec {
		*p = T(binary.LittleEndian.Uint16(c.take(2, "u16")))
	} else {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(*p))
	}
}

// As32 walks an integer field as a little-endian uint32; see As8.
func As32[T integer](c *Codec, p *T) {
	v := uint32(*p)
	if c.U32(&v); c.dec {
		*p = T(v)
	}
}

// As64 walks an integer field as a little-endian uint64; see As8.
func As64[T integer](c *Codec, p *T) {
	v := uint64(*p)
	if c.U64(&v); c.dec {
		*p = T(v)
	}
}

// Len walks a collection's element count as a u32. Encoding it writes
// n and returns it; decoding it returns the stored count, validated
// against the remaining payload at perItemMin bytes an element (0
// after a failure), so a corrupt count fails before anything is sized
// by it.
func (c *Codec) Len(n, perItemMin int) int {
	v := uint32(n)
	if c.U32(&v); !c.dec {
		return n
	}
	if c.err != nil {
		return 0
	}
	n, perItemMin = int(v), max(perItemMin, 1)
	if rest := len(c.buf) - c.off; n > rest/perItemMin {
		c.Failf("count %d needs at least %d bytes but only %d remain", n, n*perItemMin, rest)
		return 0
	}
	return n
}

// Slice walks a counted slice: the length (Len), then elem over every
// element in order. Decoding refills *s from its start, keeping its
// capacity, one appended zero element at a time — the count bounds the
// loop, never an allocation — and stops at the first failure.
func Slice[T any](c *Codec, s *[]T, perItemMin int, elem func(*Codec, *T)) {
	n := c.Len(len(*s), perItemMin)
	if c.dec {
		*s = (*s)[:0]
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.dec {
			var zero T
			*s = append(*s, zero)
		}
		elem(c, &(*s)[i])
	}
}

// Map walks a map in ascending key order, so equal maps produce equal
// bytes: the entry count (Len), then entry over every key and value.
// Encoding, entry sees copies; decoding, the map is replaced by a fresh
// one and entry fills a zero key and value that are then stored (a
// pointer-valued map's entry allocates its value first). The walk
// stops at the first failure, before storing the entry that failed.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, perItemMin int, entry func(c *Codec, k *K, v *V)) {
	// One key and one value cell for the whole walk: entry is opaque, so
	// they live on the heap, and should once per map, not once per entry.
	var k, zeroK K
	var v, zeroV V
	if c.dec {
		n := c.Len(0, perItemMin)
		*m = make(map[K]V, n)
		for i := 0; i < n; i++ {
			k, v = zeroK, zeroV
			if entry(c, &k, &v); c.Err() != nil {
				return
			}
			(*m)[k] = v
		}
		return
	}
	keys := make([]K, 0, len(*m))
	//simlint:allow maprange keys collected here are sorted before use
	for key := range *m {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	c.Len(len(keys), perItemMin)
	for _, key := range keys {
		k, v = key, (*m)[key]
		entry(c, &k, &v)
	}
}

// Match walks a value that describes how the target was constructed —
// a geometry, a capacity, a model name — with the given field walk
// (a method expression such as (*Codec).Int, or As32[int]). Encoding
// writes have; decoding fails unless the checkpoint holds the same
// value, so state is never poured into a differently shaped target.
func Match[T comparable](c *Codec, field func(*Codec, *T), have T, what string) {
	got := have
	if field(c, &got); got != have {
		c.Failf("%s mismatch: snapshot has %v, target has %v", what, got, have)
	}
}

// Present walks whether an optional part of the state exists, which
// construction decides and a checkpoint must agree with (Match), and
// reports whether to walk the part.
func (c *Codec) Present(have bool, what string) bool {
	Match(c, (*Codec).Bool, have, what+" presence")
	return have && c.Err() == nil
}
