package snapshot

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// Codec walks a state description in one of two directions: over an
// Encoder it writes every field it is shown, over a Decoder it reads
// them back into the same variables. A component describes its state
// once, as a State(c *Codec) body of field walks, and that one body is
// both its snapshot and its restore — there is no second body to keep
// in step with the first.
//
// The wire, the envelope, the sticky decode error, the Count bound and
// the section markers are the Encoder's and Decoder's; Codec adds no
// byte of its own. Work that only one direction needs sits behind
// Decoding(): allocation, re-seating and validation of what was just
// read on one side, sorted or collected views of live structures on
// the other.
type Codec struct {
	enc *Encoder
	dec *Decoder
}

// Stater is implemented by components that describe their mutable
// state to a Codec.
type Stater interface {
	State(c *Codec)
}

// PayloadCodec describes the opaque Payload field of network packets.
// The network layers are payload-agnostic; the co-simulation layer
// supplies a codec for its message type.
type PayloadCodec interface {
	// Payload walks one payload, which may be nil.
	Payload(c *Codec, payload *interface{})
}

// Codec returns a codec that writes to e.
func (e *Encoder) Codec() *Codec { return &Codec{enc: e} }

// Codec returns a codec that reads from d.
func (d *Decoder) Codec() *Codec { return &Codec{dec: d} }

// Decoding reports the direction: true when the walk fills the state
// from a checkpoint, false when it writes the state out.
func (c *Codec) Decoding() bool { return c.dec != nil }

// Err reports the first decode failure, or nil. Encoding cannot fail.
func (c *Codec) Err() error {
	if c.dec != nil {
		return c.dec.err
	}
	return nil
}

// Failf reports a state that fails its own validation. Decoding, that
// is corrupt input: the failure is recorded like Decoder.Failf, with
// offset and context, unless one is already pending. Encoding, it is a
// bug in the simulator, and writing a checkpoint that could never be
// read back would only hide it: Failf panics.
func (c *Codec) Failf(format string, args ...interface{}) {
	if c.dec == nil {
		panic("snapshot: encoding invalid state: " + fmt.Sprintf(format, args...))
	}
	c.dec.Failf(format, args...)
}

// Section walks a named marker (Encoder.Section, Decoder.Section).
func (c *Codec) Section(name string) {
	if c.dec != nil {
		c.dec.Section(name)
	} else {
		c.enc.Section(name)
	}
}

// Enter pushes the context label name[idx,...] onto decode error
// messages until the matching Leave. Encoding, it costs nothing.
func (c *Codec) Enter(name string, idx ...int) {
	if c.dec == nil {
		return
	}
	label := name + "["
	for i, v := range idx {
		if i > 0 {
			label += ","
		}
		label += strconv.Itoa(v)
	}
	c.dec.Enter(label + "]")
}

// Leave pops the most recent Enter.
func (c *Codec) Leave() {
	if c.dec != nil {
		c.dec.Leave()
	}
}

// The three widths the dense records are made of (cache ways, directory
// entries, flit slots) are small enough to inline into the state
// description: encoding, the field is appended in place, as in a
// hand-written encode body; decoding costs one call, to a getter that
// reads straight from the payload when the bytes are there and no
// failure is pending, and leaves truncation and the sticky error to the
// Decoder's exported getters otherwise.

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if c.dec == nil {
		c.enc.U8(*p)
		return
	}
	c.dec.walkU8(p)
}

func (d *Decoder) walkU8(p *uint8) {
	if d.err == nil && d.off < len(d.data) {
		*p = d.data[d.off]
		d.off++
	} else {
		*p = d.U8()
	}
}

// U32 walks a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if c.dec != nil {
		*p = c.dec.U32()
	} else {
		c.enc.U32(*p)
	}
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.dec == nil {
		c.enc.U64(*p)
		return
	}
	c.dec.walkU64(p)
}

func (d *Decoder) walkU64(p *uint64) {
	if d.err == nil && d.off+8 <= len(d.data) {
		*p = binary.LittleEndian.Uint64(d.data[d.off:])
		d.off += 8
	} else {
		*p = d.U64()
	}
}

// Int walks an int as an int64.
func (c *Codec) Int(p *int) {
	if c.dec != nil {
		*p = c.dec.Int()
	} else {
		c.enc.Int(*p)
	}
}

// F64 walks a float64 by its exact IEEE-754 bit pattern.
func (c *Codec) F64(p *float64) {
	if c.dec != nil {
		*p = c.dec.F64()
	} else {
		c.enc.F64(*p)
	}
}

// Bool walks a bool as one byte; decoding, any byte other than 0 or 1
// is corruption.
func (c *Codec) Bool(p *bool) {
	if c.dec == nil {
		c.enc.Bool(*p)
		return
	}
	c.dec.walkBool(p)
}

func (d *Decoder) walkBool(p *bool) {
	if d.err == nil && d.off < len(d.data) && d.data[d.off] <= 1 {
		*p = d.data[d.off] == 1
		d.off++
	} else {
		*p = d.Bool()
	}
}

// String walks a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.dec != nil {
		*p = c.dec.String()
	} else {
		c.enc.String(*p)
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
// conversions e.U64(uint64(v)) / v = T(d.U64()) would. The field is
// only ever written when decoding.
func As8[T integer](c *Codec, p *T) {
	v := uint8(*p)
	if c.U8(&v); c.dec != nil {
		*p = T(v)
	}
}

// As16 walks an integer field as a little-endian uint16; see As8.
func As16[T integer](c *Codec, p *T) {
	if c.dec != nil {
		*p = T(c.dec.U16())
	} else {
		c.enc.U16(uint16(*p))
	}
}

// As32 walks an integer field as a little-endian uint32; see As8.
func As32[T integer](c *Codec, p *T) {
	v := uint32(*p)
	if c.U32(&v); c.dec != nil {
		*p = T(v)
	}
}

// As64 walks an integer field as a little-endian uint64; see As8.
func As64[T integer](c *Codec, p *T) {
	v := uint64(*p)
	if c.U64(&v); c.dec != nil {
		*p = T(v)
	}
}

// Len walks a collection's element count as a u32. Encoding it writes
// n and returns it; decoding it returns the stored count, validated
// like Decoder.Count against the remaining payload at perItemMin bytes
// an element (0 after a failure), so a corrupt count fails before
// anything is sized by it.
func (c *Codec) Len(n, perItemMin int) int {
	if c.dec != nil {
		return c.dec.Count(perItemMin)
	}
	c.enc.U32(uint32(n))
	return n
}

// Slice walks a counted slice: the length (Len), then elem over every
// element in order. Decoding refills *s from its start, keeping its
// capacity, one appended zero element at a time — the count bounds the
// loop, never an allocation — and stops at the first failure.
func Slice[T any](c *Codec, s *[]T, perItemMin int, elem func(*Codec, *T)) {
	n := c.Len(len(*s), perItemMin)
	if c.dec != nil {
		*s = (*s)[:0]
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.dec != nil {
			var zero T
			*s = append(*s, zero)
		}
		elem(c, &(*s)[i])
	}
}

// Map walks a map in ascending key order, so equal maps produce equal
// bytes; see MapBy.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, perItemMin int, entry func(c *Codec, k *K, v *V)) {
	MapBy(c, m, perItemMin, cmp.Less[K], entry)
}

// MapBy walks a map in the key order less induces: the entry count
// (Len), then entry over every key and value. Encoding, entry sees
// copies; decoding, the map is replaced by a fresh one and entry fills
// a zero key and value that are then stored (a pointer-valued map's
// entry allocates its value first). The walk stops at the first
// failure, before storing the entry that failed.
func MapBy[K comparable, V any](c *Codec, m *map[K]V, perItemMin int, less func(a, b K) bool, entry func(c *Codec, k *K, v *V)) {
	// One key and one value cell for the whole walk: entry is opaque, so
	// they live on the heap, and should once per map, not once per entry.
	var k, zeroK K
	var v, zeroV V
	if c.dec != nil {
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
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
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
