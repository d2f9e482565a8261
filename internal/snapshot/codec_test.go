package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
)

type cycle uint64

// walked is a state description using every walk the codec offers.
type walked struct {
	tag    uint8
	word   uint32
	count  uint64
	signed int
	ratio  float64
	on     bool
	name   string
	when   cycle
	narrow int32 // on the wire as 64 bits
	short  int16 // on the wire as 16 bits
	wide   int   // on the wire as 32 bits
	list   []uint64
	byKey  map[uint64]*float64
	extra  *uint64 // optional part, present or not by construction
	lanes  int     // geometry: construction decides, a checkpoint must agree
}

func (w *walked) state(c *Codec) {
	c.Section("walked")
	Match(c, (*Codec).Int, w.lanes, "lanes")
	c.U8(&w.tag)
	c.U32(&w.word)
	c.U64(&w.count)
	c.Int(&w.signed)
	c.F64(&w.ratio)
	c.Bool(&w.on)
	c.String(&w.name)
	As64(c, &w.when)
	As64(c, &w.narrow)
	As16(c, &w.short)
	As32(c, &w.wide)
	Slice(c, &w.list, 8, func(c *Codec, v *uint64) { c.U64(v) })
	Map(c, &w.byKey, 16, func(c *Codec, k *uint64, v **float64) {
		if c.Decoding() {
			*v = new(float64)
		}
		c.U64(k)
		c.F64(*v)
	})
	if c.Present(w.extra != nil, "extra") {
		c.U64(w.extra)
	}
	if w.tag > 9 {
		c.Failf("tag %d out of range", w.tag)
	}
}

func sample() *walked {
	a, b, x := 1.5, -2.25, uint64(99)
	return &walked{
		tag: 7, word: 0xDEADBEEF, count: 1 << 40, signed: -7, ratio: 3.14159, on: true,
		name: "hello", when: 12345, narrow: -3, short: -2, wide: 70000,
		list:  []uint64{10, 20, 30},
		byKey: map[uint64]*float64{9: &a, 2: &b},
		extra: &x, lanes: 4,
	}
}

func encodeWalked(w *walked) []byte {
	blob, _ := Seal(1, walkFn(w.state))
	return blob
}

// TestCodecAddsNoByte: the bytes a state description produces are its
// fields, little-endian at their wire widths, and nothing else — maps
// in ascending key order, narrow integers sign-extended to their wire
// width, the envelope around them.
func TestCodecAddsNoByte(t *testing.T) {
	le := binary.LittleEndian
	want := le.AppendUint64(le.AppendUint32([]byte(Magic), FormatVersion), 1)
	want = append(append(want, sectionTag, 6, 0, 0, 0), "walked"...)
	want = le.AppendUint64(want, 4)
	want = append(want, 7)
	want = le.AppendUint32(want, 0xDEADBEEF)
	want = le.AppendUint64(want, 1<<40)
	want = le.AppendUint64(want, 1<<64-7)
	want = le.AppendUint64(want, math.Float64bits(3.14159))
	want = append(want, 1, 5, 0, 0, 0)
	want = append(want, "hello"...)
	want = le.AppendUint64(want, 12345)
	want = le.AppendUint64(want, 1<<64-3)
	want = le.AppendUint16(want, 0xFFFE)
	want = le.AppendUint32(want, 70000)
	want = le.AppendUint32(want, 3)
	want = le.AppendUint64(le.AppendUint64(le.AppendUint64(want, 10), 20), 30)
	want = le.AppendUint32(want, 2)
	want = le.AppendUint64(le.AppendUint64(want, 2), math.Float64bits(-2.25))
	want = le.AppendUint64(le.AppendUint64(want, 9), math.Float64bits(1.5))
	want = le.AppendUint64(append(want, 1), 99)
	want = seal(want)
	if got := encodeWalked(sample()); !bytes.Equal(got, want) {
		t.Errorf("codec bytes differ from the fields'\n got %x\nwant %x", got, want)
	}
}

// TestCodecWalksBothWays: the one body that wrote a state reads it
// back into a target of the same construction, over stale contents.
func TestCodecWalksBothWays(t *testing.T) {
	want := sample()
	stale := uint64(5)
	got := &walked{lanes: 4, extra: &stale, list: []uint64{1, 2, 3, 4, 5}, byKey: map[uint64]*float64{77: nil}}
	if err := Open(encodeWalked(want), 1, walkFn(got.state)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}

// TestCodecRejects: a checkpoint that disagrees with the target's
// construction, fails the description's own validation, or runs short
// is an error naming what failed — and a count that cannot fit the
// remaining payload fails before anything is sized by it.
func TestCodecRejects(t *testing.T) {
	decode := func(blob []byte, target *walked) error {
		return Open(blob, 1, walkFn(target.state))
	}
	x := uint64(0)
	target := func() *walked { return &walked{lanes: 4, extra: &x} }

	geometry := target()
	geometry.lanes = 8
	if err := decode(encodeWalked(sample()), geometry); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "lanes mismatch: snapshot has 4, target has 8") {
		t.Errorf("geometry mismatch: %v", err)
	}
	absent := target()
	absent.extra = nil
	if err := decode(encodeWalked(sample()), absent); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "extra presence mismatch") {
		t.Errorf("presence mismatch: %v", err)
	}

	// Rewrite one payload byte and seal again.
	body := func() []byte {
		blob := encodeWalked(sample())
		return blob[:len(blob)-trailerLen]
	}
	mutate := func(find []byte, at int, v byte) []byte {
		b := body()
		i := bytes.Index(b, find)
		if i < 0 {
			t.Fatalf("%x not in the blob", find)
		}
		b[i+at] = v
		return seal(b)
	}
	// The tag is the byte after the 8-byte lanes field that follows the
	// section name.
	if err := decode(mutate([]byte("walked"), 6+8, 10), target()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "tag 10 out of range") {
		t.Errorf("validation: %v", err)
	}
	// The bool sits before the string's length prefix.
	if err := decode(mutate([]byte("\x05\x00\x00\x00hello"), -1, 2), target()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bool byte") {
		t.Errorf("bool: %v", err)
	}
	// The list count: 0xFF000003 elements cannot fit what remains.
	huge := target()
	if err := decode(mutate([]byte("\x03\x00\x00\x00\x0a\x00"), 3, 0xFF), huge); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "count") {
		t.Errorf("count: %v", err)
	}
	if cap(huge.list) != 0 {
		t.Errorf("a rejected count sized the slice to %d", cap(huge.list))
	}

	b := body()
	if err := decode(seal(b[:len(b)-6]), target()); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated payload: %v", err)
	}
}

// seal appends the CRC trailer to a checkpoint body.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// TestCodecEncodingInvalidStatePanics: a state that fails its own
// validation must not be written as a checkpoint nothing can read.
func TestCodecEncodingInvalidStatePanics(t *testing.T) {
	bad := sample()
	bad.tag = 10
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "tag 10 out of range") {
			t.Errorf("encoding an invalid state recovered %v, want a panic naming the tag", r)
		}
	}()
	encodeWalked(bad)
}

// TestCodecContextOnlyWhenDecoding: Enter labels reach decode errors,
// nested and with their indices, and cost an encode nothing.
func TestCodecContextOnlyWhenDecoding(t *testing.T) {
	var (
		b uint8
		v uint64
	)
	cases := []struct {
		name        string
		write, read func(c *Codec)
		want        string
	}{
		{"failf", func(c *Codec) {
			c.Enter("link", 3, 1)
			c.U64(&v)
			c.Leave()
		}, func(c *Codec) {
			c.Enter("link", 3, 1)
			c.U64(&v)
			c.Failf("bad credit")
			c.Leave()
		}, "snapshot: corrupt input: bad credit (offset 8 in link[3,1])"},
		{"truncated", func(c *Codec) {
			c.Section("a")
			c.U8(&b)
		}, func(c *Codec) {
			c.Enter("router", 3)
			c.Enter("port", 1, 2)
			c.Section("a")
			c.U8(&b)
			c.U64(&v)
		}, "snapshot: truncated input: need 8 bytes for u64 at payload offset 7 of 7 in router[3]/port[1,2]"},
		{"left", func(c *Codec) { c.U64(&v) }, func(c *Codec) {
			c.Enter("router", 3)
			c.Enter("port", 1, 2)
			c.Leave()
			c.U64(&v)
			c.Bool(new(bool))
		}, "snapshot: truncated input: need 1 bytes for u8 at payload offset 8 of 8 in router[3]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, _ := Seal(1, walkFn(func(c *Codec) {
				c.Enter("ignored", 1)
				tc.write(c)
			}))
			bare, _ := Seal(1, walkFn(tc.write))
			if !bytes.Equal(plain, bare) {
				t.Error("Enter changed the encoded bytes")
			}
			if err := Open(plain, 1, walkFn(tc.read)); err == nil || err.Error() != tc.want {
				t.Errorf("error %q\nwant  %q", err, tc.want)
			}
		})
	}
}
