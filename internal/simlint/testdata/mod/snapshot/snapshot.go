// Package snapshot is a minimal stand-in for the real snapshot package
// so the statecov fixtures can exercise realistic state descriptions:
// the rule keys on methods whose first parameter is a *snapshot.Codec.
package snapshot

// Codec walks fields into a byte buffer or back out of one.
type Codec struct {
	buf      []byte
	off      int
	decoding bool
}

// Decoding reports the direction of the walk.
func (c *Codec) Decoding() bool { return c.decoding }

// U64 walks a fixed-width integer.
func (c *Codec) U64(p *uint64) {
	if !c.decoding {
		for i := 0; i < 8; i++ {
			c.buf = append(c.buf, byte(*p>>(8*i)))
		}
		return
	}
	*p = 0
	for i := 0; i < 8 && c.off < len(c.buf); i++ {
		*p |= uint64(c.buf[c.off]) << (8 * i)
		c.off++
	}
}

// F64 walks a float as its integer part.
func (c *Codec) F64(p *float64) {
	v := uint64(int64(*p))
	c.U64(&v)
	*p = float64(int64(v))
}

// Str walks a length-prefixed string.
func (c *Codec) Str(p *string) {
	n := uint64(len(*p))
	c.U64(&n)
	if !c.decoding {
		c.buf = append(c.buf, *p...)
		return
	}
	end := min(c.off+int(n), len(c.buf))
	*p = string(c.buf[c.off:end])
	c.off = end
}
