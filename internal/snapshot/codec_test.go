package snapshot

import (
	"bytes"
	"errors"
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
	e := NewEncoder(1)
	w.state(e.Codec())
	return e.Finish()
}

// TestCodecAddsNoByte: the bytes a state description produces are the
// ones the same fields produce through the Encoder directly — maps in
// ascending key order, narrow integers sign-extended to their wire
// width.
func TestCodecAddsNoByte(t *testing.T) {
	e := NewEncoder(1)
	e.Section("walked")
	e.Int(4)
	e.U8(7)
	e.U32(0xDEADBEEF)
	e.U64(1 << 40)
	e.Int(-7)
	e.F64(3.14159)
	e.Bool(true)
	e.String("hello")
	e.U64(12345)
	e.I64(-3)
	e.U16(0xFFFE)
	e.U32(70000)
	e.U32(3)
	e.U64(10)
	e.U64(20)
	e.U64(30)
	e.U32(2)
	e.U64(2)
	e.F64(-2.25)
	e.U64(9)
	e.F64(1.5)
	e.Bool(true)
	e.U64(99)
	if got, want := encodeWalked(sample()), e.Finish(); !bytes.Equal(got, want) {
		t.Errorf("codec bytes differ from the encoder's\n got %x\nwant %x", got, want)
	}
}

// TestCodecWalksBothWays: the one body that wrote a state reads it
// back into a target of the same construction, over stale contents.
func TestCodecWalksBothWays(t *testing.T) {
	want := sample()
	d, err := NewDecoder(encodeWalked(want), 1)
	if err != nil {
		t.Fatal(err)
	}
	stale := uint64(5)
	got := &walked{lanes: 4, extra: &stale, list: []uint64{1, 2, 3, 4, 5}, byKey: map[uint64]*float64{77: nil}}
	got.state(d.Codec())
	if err := d.Finish(); err != nil {
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
		d, err := NewDecoder(blob, 1)
		if err != nil {
			t.Fatal(err)
		}
		target.state(d.Codec())
		return d.Finish()
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
	return (&Encoder{buf: append([]byte(nil), body...)}).Finish()
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

// TestCodecContextOnlyWhenDecoding: Enter labels reach decode errors
// and cost an encode nothing.
func TestCodecContextOnlyWhenDecoding(t *testing.T) {
	e := NewEncoder(1)
	c := e.Codec()
	c.Enter("link", 3, 1)
	v := uint64(1)
	c.U64(&v)
	c.Leave()
	d, err := NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c = d.Codec()
	c.Enter("link", 3, 1)
	c.U64(&v)
	c.Failf("bad credit")
	c.Leave()
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "in link[3,1]") {
		t.Errorf("decode error lacks the Enter label: %v", err)
	}
}
