package memdb

// index is a hash index on one column: for each value ID, the ascending row
// ids holding that value. Every posting list lives in one shared arena and
// the map only locates it, so neither holds a pointer — the collector skips
// both (a Go map with pointer-free keys and elements is not scanned) — and
// the cost is proportional to the column, never to the dictionary. Posting
// lists keep insertion order, which is what lets a fixed-seed CHOOSE draw
// (an offset into the list) land on the same row under any layout.
type index struct {
	spans map[uint32]span // by value ID
	arena []uint32
}

// span locates one posting list: arena[off : off+n], with room to grow in
// place up to arena[off+cap].
type span struct{ off, n, cap uint32 }

// newIndex builds the index of a column by counting sort: exact-fit posting
// lists laid out in order of first occurrence, rows ascending within each.
func newIndex(col []uint32) *index {
	ix := &index{spans: make(map[uint32]span), arena: make([]uint32, len(col))}
	for _, id := range col {
		s := ix.spans[id]
		s.cap++
		ix.spans[id] = s
	}
	next := uint32(0)
	for row, id := range col {
		s := ix.spans[id]
		if s.n == 0 {
			s.off = next
			next += s.cap
		}
		ix.arena[s.off+s.n] = uint32(row)
		s.n++
		ix.spans[id] = s
	}
	return ix
}

// lookup returns the posting list of a value ID (nil when it has none, as
// noID never does). The slice aliases the index: read-only, valid while the
// caller holds the DB lock.
func (ix *index) lookup(id uint32) []uint32 {
	s, ok := ix.spans[id]
	if !ok {
		return nil
	}
	return ix.arena[s.off : s.off+s.n]
}

// add appends row to id's posting list. A list with no room left grows in
// place when it ends the arena (the bulk-load case: rows arriving grouped by
// key), and otherwise moves to the arena's end with doubled capacity — the
// vacated slots are abandoned, which bounds the arena at three times the
// live postings until the next rebuild.
func (ix *index) add(id, row uint32) {
	s := ix.spans[id]
	if s.n == s.cap {
		if int(s.off+s.cap) != len(ix.arena) {
			old := ix.arena[s.off : s.off+s.n]
			s.off = uint32(len(ix.arena))
			ix.arena = append(ix.arena, old...)
			ix.arena = append(ix.arena, make([]uint32, s.n)...)
			s.cap = 2 * s.n
		}
		ix.arena = append(ix.arena, 0)
		s.cap++
	}
	ix.arena[s.off+s.n] = row
	s.n++
	ix.spans[id] = s
}
