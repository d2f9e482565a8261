package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

// sealed builds a small but representative checkpoint: every primitive
// type, a section marker, and nested context.
func sealed(digest uint64) []byte {
	e := NewEncoder(digest)
	e.Section("header")
	e.U8(7)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.I64(-42)
	e.Int(-7)
	e.F64(3.14159)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.Bytes([]byte{1, 2, 3})
	e.Section("body")
	e.U32(2)
	e.U64(10)
	e.U64(20)
	return e.Finish()
}

func TestRoundTrip(t *testing.T) {
	const digest = 0xCAFE
	d, err := NewDecoder(sealed(digest), digest)
	if err != nil {
		t.Fatal(err)
	}
	d.Section("header")
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if v := d.F64(); v != 3.14159 {
		t.Errorf("F64 = %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool pair mismatch")
	}
	if v := d.String(); v != "hello" {
		t.Errorf("String = %q", v)
	}
	if b := d.Bytes(); len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Errorf("Bytes = %v", b)
	}
	d.Section("body")
	if n := d.Count(8); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if a, b := d.U64(), d.U64(); a != 10 || b != 20 {
		t.Errorf("list = %d, %d", a, b)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingDeterministic(t *testing.T) {
	a, b := sealed(1), sealed(1)
	if string(a) != string(b) {
		t.Error("identical encodes produced different bytes")
	}
}

// TestCorruption is the table-driven robustness check: every corruption
// class must be rejected with its sentinel error and a descriptive
// message, never a panic or a silent misread.
func TestCorruption(t *testing.T) {
	const digest = 0xCAFE
	good := sealed(digest)

	mut := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	reseal := func(b []byte) []byte {
		b = b[:len(b)-trailerLen]
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"below envelope", good[:headerLen+trailerLen-1], ErrTruncated},
		{"bad magic", mut(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"wrong version", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(Magic):], FormatVersion+1)
			return reseal(b)
		}), ErrVersion},
		{"flipped payload byte", mut(func(b []byte) []byte { b[headerLen+9] ^= 0x40; return b }), ErrCorrupt},
		{"flipped trailer byte", mut(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }), ErrCorrupt},
		{"truncated mid-payload", reseal(append([]byte(nil), good[:len(good)-20]...)), ErrTruncated},
		{"trailing garbage", reseal(append(append([]byte(nil), good[:len(good)-trailerLen]...), 0xFF, 0xFF)), ErrCorrupt},
		{"wrong digest", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(Magic)+4:], digest+1)
			return reseal(b)
		}), ErrConfigMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeAll(tc.data, digest)
			if err == nil {
				t.Fatal("corrupted input decoded without error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want category %v", err, tc.want)
			}
			if len(err.Error()) < len("snapshot: ") {
				t.Fatalf("error message not descriptive: %q", err)
			}
		})
	}
}

// decodeAll performs the full decode sequence of sealed() and returns
// the first failure (envelope or field level).
func decodeAll(data []byte, digest uint64) error {
	d, err := NewDecoder(data, digest)
	if err != nil {
		return err
	}
	d.Section("header")
	d.U8()
	d.U16()
	d.U32()
	d.U64()
	d.I64()
	d.Int()
	d.F64()
	d.Bool()
	d.Bool()
	_ = d.String()
	d.Bytes()
	d.Section("body")
	n := d.Count(8)
	for i := 0; i < n; i++ {
		d.U64()
	}
	return d.Finish()
}

func TestStickyErrorAndContext(t *testing.T) {
	e := NewEncoder(1)
	e.Section("a")
	e.U8(3)
	d, err := NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Enter("router[3]")
	d.Section("a")
	d.U8()
	d.U64() // past the end: must set the sticky error
	if d.Err() == nil {
		t.Fatal("read past end did not error")
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("error %v, want ErrTruncated", d.Err())
	}
	if !strings.Contains(d.Err().Error(), "router[3]") {
		t.Errorf("error lacks context label: %v", d.Err())
	}
	// Later reads stay zero-valued and keep the first error.
	first := d.Err()
	if v := d.U64(); v != 0 {
		t.Errorf("read after error returned %d", v)
	}
	if d.Err() != first {
		t.Error("sticky error was replaced")
	}
}

func TestSectionMismatch(t *testing.T) {
	e := NewEncoder(1)
	e.Section("written")
	d, err := NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Section("expected")
	if d.Err() == nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("section mismatch not reported: %v", d.Err())
	}
	if !strings.Contains(d.Err().Error(), "written") || !strings.Contains(d.Err().Error(), "expected") {
		t.Errorf("section mismatch message lacks both names: %v", d.Err())
	}
}

// A corrupt name length can make a section's "name" the whole rest of
// the payload; the error quotes a bounded prefix of it.
func TestSectionMismatchQuotesBoundedName(t *testing.T) {
	e := NewEncoder(1)
	e.U8(sectionTag)
	e.Bytes(make([]byte, 1<<16))
	d, err := NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Section("expected")
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", d.Err())
	}
	if msg := d.Err().Error(); len(msg) > 512 || !strings.Contains(msg, "65536-byte") {
		t.Errorf("mismatch message is %d bytes or lacks the name's length: %.200s", len(msg), msg)
	}
}

func TestCountRejectsHugeValues(t *testing.T) {
	e := NewEncoder(1)
	e.U32(1 << 30) // claims a billion elements with no bytes behind them
	d, err := NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Count(8); n != 0 {
		t.Fatalf("Count accepted %d", n)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", d.Err())
	}
}

func TestDigestStable(t *testing.T) {
	if Digest("a", "b") != Digest("a", "b") {
		t.Error("digest not stable")
	}
	if Digest("a", "b") == Digest("ab") {
		t.Error("digest ignores part boundaries")
	}
	if Digest("a", "b") == Digest("b", "a") {
		t.Error("digest ignores order")
	}
}

// FuzzDecoder drives arbitrary bytes through the full decode path used
// by sealed(): the decoder must never panic and must flag any input
// that differs from a well-formed stream.
func FuzzDecoder(f *testing.F) {
	const digest = 0xCAFE
	good := sealed(digest)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(good[:headerLen+trailerLen])
	f.Fuzz(func(t *testing.T, data []byte) {
		err := decodeAll(data, digest)
		if err == nil && string(data) != string(good) {
			t.Fatalf("malformed input (%d bytes) decoded cleanly", len(data))
		}
	})
}
