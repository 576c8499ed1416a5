package ir

import (
	"encoding/binary"
	"fmt"
)

// The binary query form is the durable one: the write-ahead log's admit
// records and the checkpoint's pending set persist queries in it, and
// recovery decodes it without the text parser. It is exact — Owner, Choose
// and every atom with each term's kind and spelling, variable names
// included — because recovery re-submits the decoded query and coordination
// depends on those names (the unifier orders class members by name).
//
// Layout, all integers unsigned LEB128 varints unless noted:
//
//	Choose (zigzag varint) | Owner ref | #Heads | #Posts | #Body |
//	per atom: Rel ref | #args | per arg: term token
//
// Each distinct string is spelled once per encoding; later uses refer back
// to it by first-occurrence index. A ref is (len<<1) followed by the bytes
// for a new string, or (index<<1)|1 for a repeat. A term token is its
// spelling's ref shifted left once more, with the low bit set for a
// constant and clear for a variable. An encoding is self-contained and
// canonical: DecodeBinary accepts exactly what AppendBinary produces.

// spans records where each distinct string of one encoding is spelled, as
// byte ranges of the encoding, in first-occurrence order. Queries are small
// — a handful of distinct strings — so lookup is a linear scan, as in
// Validate; holding offsets rather than strings keeps the table on the
// stack.
type spans []struct{ off, n int }

// appendRef appends s's ref, shifted left by tagBits and or-ed with tag,
// and returns the extended encoding and table.
func appendRef(b []byte, t spans, s string, tagBits uint, tag uint64) ([]byte, spans) {
	for i, sp := range t {
		if string(b[sp.off:sp.off+sp.n]) == s {
			return binary.AppendUvarint(b, (uint64(i)<<1|1)<<tagBits|tag), t
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s))<<1<<tagBits|tag)
	t = append(t, struct{ off, n int }{len(b), len(s)})
	return append(b, s...), t
}

// AppendBinary appends the binary form of q to b and returns the extended
// slice. The query's ID is not part of it.
func AppendBinary(b []byte, q *Query) []byte {
	var buf [16]struct{ off, n int }
	t := spans(buf[:0])
	b = binary.AppendVarint(b, int64(q.Choose))
	b, t = appendRef(b, t, q.Owner, 0, 0)
	for _, group := range [3][]Atom{q.Heads, q.Posts, q.Body} {
		b = binary.AppendUvarint(b, uint64(len(group)))
	}
	for _, group := range [3][]Atom{q.Heads, q.Posts, q.Body} {
		for _, a := range group {
			b, t = appendRef(b, t, a.Rel, 0, 0)
			b = binary.AppendUvarint(b, uint64(len(a.Args)))
			for _, arg := range a.Args {
				var kind uint64
				if arg.Kind != KindVar {
					kind = 1
				}
				b, t = appendRef(b, t, arg.Value, 1, kind)
			}
		}
	}
	return b
}

// binDecoder is a bounds-checked cursor over one encoding.
type binDecoder struct {
	src string
	pos int
	t   spans
	err error
}

func (d *binDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ir: corrupt binary query: %s at byte %d", fmt.Sprintf(format, args...), d.pos)
	}
}

// uvarint reads one minimally encoded varint.
func (d *binDecoder) uvarint() uint64 {
	var v uint64
	for shift := uint(0); d.err == nil; shift += 7 {
		if d.pos >= len(d.src) {
			d.fail("truncated varint")
			break
		}
		c := d.src[d.pos]
		d.pos++
		if shift == 63 && c > 1 {
			d.fail("varint overflows 64 bits")
			break
		}
		if c < 0x80 {
			if c == 0 && shift > 0 {
				d.fail("overlong varint")
				break
			}
			return v | uint64(c)<<shift
		}
		v |= uint64(c&0x7f) << shift
	}
	return 0
}

// count reads a length that needs at least minBytes of input per unit.
func (d *binDecoder) count(minBytes int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64((len(d.src)-d.pos)/minBytes) {
		d.fail("count %d exceeds the remaining input", n)
		return 0
	}
	return int(n)
}

// ref resolves a string ref (tag bits already shifted out).
func (d *binDecoder) ref(r uint64) string {
	if d.err != nil {
		return ""
	}
	if r&1 == 1 {
		i := r >> 1
		if i >= uint64(len(d.t)) {
			d.fail("back-reference %d to %d strings", i, len(d.t))
			return ""
		}
		sp := d.t[i]
		return d.src[sp.off : sp.off+sp.n]
	}
	n := r >> 1
	if n > uint64(len(d.src)-d.pos) {
		d.fail("string of %d bytes exceeds the remaining input", n)
		return ""
	}
	s := d.src[d.pos : d.pos+int(n)]
	for _, sp := range d.t {
		if d.src[sp.off:sp.off+sp.n] == s {
			d.fail("string %q spelled twice", s)
			return ""
		}
	}
	d.t = append(d.t, struct{ off, n int }{d.pos, int(n)})
	d.pos += int(n)
	return s
}

// DecodeBinary decodes one AppendBinary encoding. The result's strings
// share src's memory. Anything AppendBinary would not have produced —
// truncation, trailing bytes, a dangling or redundant string, an overlong
// varint — is an error, never a panic.
func DecodeBinary(src string) (*Query, error) {
	var buf [16]struct{ off, n int }
	d := binDecoder{src: src, t: buf[:0]}
	z := d.uvarint()
	choose := int64(z >> 1)
	if z&1 != 0 {
		choose = ^choose
	}
	q := &Query{Choose: int(choose)}
	q.Owner = d.ref(d.uvarint())
	var counts [3]int
	total := 0
	for i := range counts {
		counts[i] = d.count(2) // an atom is at least a ref and an arity
		total += counts[i]
	}
	if d.err == nil && total > (len(src)-d.pos)/2 {
		d.fail("%d atoms exceed the remaining input", total)
	}
	if d.err != nil {
		return nil, d.err
	}
	atoms := make([]Atom, total)
	for i := range atoms {
		a := &atoms[i]
		a.Rel = d.ref(d.uvarint())
		if n := d.count(1); n > 0 {
			a.Args = make([]Term, n)
			for j := range a.Args {
				tok := d.uvarint()
				a.Args[j] = Term{Kind: KindVar, Value: d.ref(tok >> 1)}
				if tok&1 == 1 {
					a.Args[j].Kind = KindConst
				}
			}
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if d.pos != len(src) {
		d.fail("%d trailing bytes", len(src)-d.pos)
		return nil, d.err
	}
	groups := [3]*[]Atom{&q.Heads, &q.Posts, &q.Body}
	lo := 0
	for i, g := range groups {
		if n := counts[i]; n > 0 {
			*g = atoms[lo : lo+n : lo+n]
			lo += n
		}
	}
	return q, nil
}
