package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fields is a small but representative state: every walk, two
// section markers and a counted list.
type fields struct {
	tag     uint8
	short   uint16
	word    uint32
	big     uint64
	neg     int64
	i       int
	f       float64
	yes, no bool
	s, raw  string
	list    []uint64
}

func (f *fields) state(c *Codec) error {
	c.Section("header")
	c.U8(&f.tag)
	As16(c, &f.short)
	c.U32(&f.word)
	c.U64(&f.big)
	As64(c, &f.neg)
	c.Int(&f.i)
	c.F64(&f.f)
	c.Bool(&f.yes)
	c.Bool(&f.no)
	c.String(&f.s)
	c.String(&f.raw)
	c.Section("body")
	Slice(c, &f.list, 8, (*Codec).U64)
	return nil
}

func sampleFields() *fields {
	return &fields{
		tag: 7, short: 0xBEEF, word: 0xDEADBEEF, big: 0x0123456789ABCDEF, neg: -42, i: -7, f: 3.14159,
		yes: true, s: "hello", raw: "\x01\x02\x03", list: []uint64{10, 20},
	}
}

// sealed is the checkpoint of sampleFields. Its bytes are the
// committed FuzzDecoder seed seed-sealed (digest 0xCAFE).
func sealed(digest uint64) []byte {
	blob, err := Seal(digest, sampleFields().state)
	if err != nil {
		panic(err)
	}
	return blob
}

func TestRoundTrip(t *testing.T) {
	const digest = 0xCAFE
	got := &fields{}
	if err := Open(sealed(digest), digest, got.state); err != nil {
		t.Fatal(err)
	}
	if want := sampleFields(); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}

func TestEncodingDeterministic(t *testing.T) {
	a, b := sealed(1), sealed(1)
	if string(a) != string(b) {
		t.Error("identical encodes produced different bytes")
	}
	// The committed fuzz seed holds the bytes sealed() produced when it
	// was recorded.
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecoder/seed-sealed")
	if err != nil {
		t.Fatal(err)
	}
	_, quoted, _ := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
	seed, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil || seed != string(sealed(0xCAFE)) {
		t.Errorf("sealed() no longer produces the committed seed-sealed bytes (%v)", err)
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

// decodeAll performs the full decode of sealed() and returns the
// first failure (envelope or field level).
func decodeAll(data []byte, digest uint64) error {
	return Open(data, digest, new(fields).state)
}

// walkFn adapts a walk that cannot fail on its own to Seal and Open.
func walkFn(walk func(c *Codec)) func(*Codec) error {
	return func(c *Codec) error { walk(c); return nil }
}

// TestStickyErrorAndContext pins the exact text of every decode
// failure a walk can meet, and that the first failure sticks: later
// walks read zero values and keep it.
func TestStickyErrorAndContext(t *testing.T) {
	var (
		u8   uint8
		u16  uint16
		u32  uint32
		u64  uint64
		str  string
		flag bool
	)
	cases := []struct {
		name        string
		write, read func(c *Codec)
		want        string
	}{
		{"u8", func(c *Codec) {}, func(c *Codec) { c.U8(&u8) },
			"snapshot: truncated input: need 1 bytes for u8 at payload offset 0 of 0"},
		{"u16", func(c *Codec) { c.U8(&u8) }, func(c *Codec) { As16(c, &u16) },
			"snapshot: truncated input: need 2 bytes for u16 at payload offset 0 of 1"},
		{"u32", func(c *Codec) { As16(c, &u16); c.U8(&u8) }, func(c *Codec) { c.U32(&u32) },
			"snapshot: truncated input: need 4 bytes for u32 at payload offset 0 of 3"},
		{"u64", func(c *Codec) { c.U32(&u32); As16(c, &u16); c.U8(&u8) }, func(c *Codec) { c.U64(&u64) },
			"snapshot: truncated input: need 8 bytes for u64 at payload offset 0 of 7"},
		{"string body", func(c *Codec) { n, b := uint32(5), uint8('h'); c.U32(&n); c.U8(&b); c.U8(&b); c.U8(&b) }, func(c *Codec) { c.String(&str) },
			"snapshot: truncated input: need 5 bytes for bytes body at payload offset 4 of 7"},
		{"bool byte", func(c *Codec) { b := uint8(2); c.U8(&b) }, func(c *Codec) { c.Bool(&flag) },
			"snapshot: corrupt input: bool byte is 0x2, want 0 or 1 (offset 1)"},
		{"len beyond payload", func(c *Codec) { n := uint32(3); c.U32(&n); c.U64(&u64) }, func(c *Codec) { c.Len(0, 8) },
			"snapshot: corrupt input: count 3 needs at least 24 bytes but only 8 remain (offset 4)"},
		{"section name", func(c *Codec) { c.Section("written") }, func(c *Codec) { c.Section("expected") },
			"snapshot: corrupt input: expected section \"expected\", found a 7-byte section \"written\" — stream out of sync (offset 12)"},
		{"section marker", func(c *Codec) { var b uint8; c.U8(&b); s := "expected"; c.String(&s) }, func(c *Codec) { c.Section("expected") },
			"snapshot: corrupt input: expected section marker for \"expected\", found byte 0x0 — stream out of sync (offset 1)"},
		{"trailing bytes", func(c *Codec) { c.U8(&u8); As16(c, &u16) }, func(c *Codec) { c.U8(&u8) },
			"snapshot: corrupt input: 2 trailing payload bytes after the last field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := Seal(1, walkFn(tc.write))
			if err != nil {
				t.Fatal(err)
			}
			err = Open(blob, 1, func(c *Codec) error {
				tc.read(c)
				// Later walks read zero values and keep the first error.
				if first := c.Err(); first != nil {
					u8, u64, str = 9, 9, "stale"
					c.U8(&u8)
					c.U64(&u64)
					c.String(&str)
					if u8 != 0 || u64 != 0 || str != "" || c.Err() != first {
						t.Errorf("walks after the failure read %d, %d, %q and error %v", u8, u64, str, c.Err())
					}
				}
				return nil
			})
			if err == nil || err.Error() != tc.want {
				t.Errorf("error %q\nwant  %q", err, tc.want)
			}
		})
	}
}

func TestSectionMismatch(t *testing.T) {
	blob, _ := Seal(1, walkFn(func(c *Codec) { c.Section("written") }))
	err := Open(blob, 1, walkFn(func(c *Codec) { c.Section("expected") }))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("section mismatch not reported: %v", err)
	}
	if !strings.Contains(err.Error(), "written") || !strings.Contains(err.Error(), "expected") {
		t.Errorf("section mismatch message lacks both names: %v", err)
	}
}

// A corrupt name length can make a section's "name" the whole rest of
// the payload; the error quotes a bounded prefix of it.
func TestSectionMismatchQuotesBoundedName(t *testing.T) {
	blob, _ := Seal(1, walkFn(func(c *Codec) {
		tag, name := uint8(sectionTag), string(make([]byte, 1<<16))
		c.U8(&tag)
		c.String(&name)
	}))
	err := Open(blob, 1, walkFn(func(c *Codec) { c.Section("expected") }))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
	if msg := err.Error(); len(msg) > 512 || !strings.Contains(msg, "65536-byte") {
		t.Errorf("mismatch message is %d bytes or lacks the name's length: %.200s", len(msg), msg)
	}
}

func TestCountRejectsHugeValues(t *testing.T) {
	// Claims a billion elements with no bytes behind them.
	blob, _ := Seal(1, walkFn(func(c *Codec) { c.Len(1<<30, 8) }))
	n := -1
	err := Open(blob, 1, walkFn(func(c *Codec) { n = c.Len(0, 8) }))
	if n != 0 {
		t.Fatalf("Len accepted %d", n)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
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

// FuzzDecoder drives arbitrary bytes through Open's envelope checks
// and the codec's walks of sealed(): the decode must never panic and
// must flag any input that differs from a well-formed stream.
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
