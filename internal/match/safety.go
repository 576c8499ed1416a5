// Package match implements the evaluation algorithm for entangled queries
// (Section 4 of the paper): the safety check (Section 3.1.1), the UCS check
// (Section 3.1.2), unifier propagation on the unifiability graph
// (Algorithm 1, Section 4.1.4), combined-query construction and
// simplification (Section 4.2), and end-to-end coordinated query answering
// against the memdb substrate.
package match

import (
	"fmt"

	"entangle/internal/graph"
	"entangle/internal/ir"
)

// SafetyViolation records an unsafe query: one of its postcondition atoms
// unifies with two or more head atoms in the workload (Section 3.1.1).
type SafetyViolation struct {
	Query ir.QueryID      // the unsafe query
	Post  ir.Atom         // the offending postcondition atom
	Heads []graph.AtomRef // the ≥2 head atoms it unifies with
}

// String describes the violation.
func (v SafetyViolation) String() string {
	return fmt.Sprintf("query %d: postcondition %s unifies with %d head atoms", v.Query, v.Post, len(v.Heads))
}

// CheckSafety examines a workload and returns a violation for every query
// with a postcondition unifying with more than one head atom. The counted
// heads may belong to several queries or to a single other query ("two head
// atoms of the same query"); a query's own heads are excluded, because a
// query is never its own coordination partner (see graph.AddQuery).
// An empty result means the set is safe.
func CheckSafety(queries []*ir.Query) []SafetyViolation {
	ix := graph.NewIndex()
	for _, q := range queries {
		for hi, h := range q.Heads {
			ix.Add(graph.AtomRef{Query: q.ID, Pos: hi, Atom: h})
		}
	}
	var out []SafetyViolation
	for _, q := range queries {
		for _, p := range q.Posts {
			heads := ix.Lookup(p)
			others := heads[:0]
			for _, h := range heads {
				if h.Query != q.ID {
					others = append(others, h)
				}
			}
			if len(others) > 1 {
				out = append(out, SafetyViolation{Query: q.ID, Post: p, Heads: others})
			}
		}
	}
	return out
}

// EnforceSafety implements the paper's simple removal procedure: iterate
// over the query set, removing every query that has a postcondition
// unifying with more than one head atom, until the remaining set is safe.
// The procedure is not Church-Rosser in general but is efficient and
// deterministic here (queries are scanned in input order each round).
// It returns the surviving queries and the removed ones.
func EnforceSafety(queries []*ir.Query) (kept, removed []*ir.Query) {
	kept = append([]*ir.Query(nil), queries...)
	for {
		viol := CheckSafety(kept)
		if len(viol) == 0 {
			return kept, removed
		}
		bad := make(map[ir.QueryID]bool, len(viol))
		for _, v := range viol {
			bad[v.Query] = true
		}
		next := kept[:0]
		for _, q := range kept {
			if bad[q.ID] {
				removed = append(removed, q)
			} else {
				next = append(next, q)
			}
		}
		kept = next
	}
}

// SafetyChecker admits queries one at a time, maintaining head and
// postcondition indices over the admitted set. A new query is rejected if
// admitting it would make the workload unsafe — either because one of its
// own postconditions unifies with two or more admitted heads, or because one
// of its heads would give an admitted query's postcondition a second
// unifying head. This is the incremental admission test stress-tested in
// the paper's Figure 9 experiment.
type SafetyChecker struct {
	heads *graph.Index // head atoms of admitted queries
	posts *graph.Index // postcondition atoms of admitted queries
	n     int
	// shared marks a checker layered over a unifiability graph's own atom
	// indexes: the graph maintains the entries (AddQuery/RemoveQuery), so
	// this checker's admission bookkeeping must not touch them.
	shared bool
	// Reusable lookup buffers: Check runs on the engine's per-arrival path,
	// so its index probes must not allocate. buf2 exists because the
	// head-side check nests a heads lookup inside a posts lookup.
	buf, buf2 []graph.AtomRef
}

// NewSafetyChecker returns an empty checker.
func NewSafetyChecker() *SafetyChecker {
	return &SafetyChecker{heads: graph.NewIndex(), posts: graph.NewIndex()}
}

// NewSharedSafetyChecker returns a checker that reads the given graph's own
// head/postcondition indexes instead of maintaining a duplicate pair. The
// caller must keep checker admissions and graph membership in lock-step
// (admit ⇒ AddQuery, retire ⇒ RemoveQuery), which is exactly the engine's
// shard discipline; in exchange every atom is indexed once per shard, not
// twice. Admit/AdmitUnchecked/Remove only track the admitted count; the
// index mutations happen through the graph.
func NewSharedSafetyChecker(g *graph.Graph) *SafetyChecker {
	return &SafetyChecker{heads: g.HeadIndex(), posts: g.PostIndex(), shared: true}
}

// Len returns the number of admitted queries.
func (c *SafetyChecker) Len() int { return c.n }

// Check reports whether q can be admitted without violating safety. It does
// not modify the checker. A query's own heads never count against its own
// postconditions (no self-coordination).
func (c *SafetyChecker) Check(q *ir.Query) error {
	// (1) Each of q's postconditions must unify with at most one admitted
	// head (own heads excluded).
	for _, p := range q.Posts {
		n := 0
		c.buf = c.heads.AppendLookup(c.buf[:0], p)
		for _, h := range c.buf {
			if h.Query != q.ID {
				n++
			}
		}
		if n > 1 {
			return fmt.Errorf("match: unsafe: postcondition %s of query %d unifies with %d head atoms", p, q.ID, n)
		}
	}
	// (2) q's heads must not give any admitted postcondition a second
	// unifying head. Each admitted postcondition currently has 0 or 1
	// unifying heads (invariant); count how many of q's heads would join,
	// so a query contributing two unifying heads at once is caught even
	// when the postcondition currently has none.
	type postKey struct {
		q   ir.QueryID
		pos int
	}
	var added map[postKey]int // lazily allocated: empty on the usual no-match probe
	for _, h := range q.Heads {
		c.buf = c.posts.AppendLookup(c.buf[:0], h)
		for _, pref := range c.buf {
			if pref.Query == q.ID {
				continue
			}
			if added == nil {
				added = make(map[postKey]int)
			}
			k := postKey{pref.Query, pref.Pos}
			added[k]++
			existing := 0
			c.buf2 = c.heads.AppendLookup(c.buf2[:0], pref.Atom)
			for _, eh := range c.buf2 {
				if eh.Query != pref.Query {
					existing++
				}
			}
			if existing+added[k] > 1 {
				return fmt.Errorf("match: unsafe: head %s of query %d would give postcondition %s of query %d multiple matches",
					h, q.ID, pref.Atom, pref.Query)
			}
		}
	}
	return nil
}

// Admit checks q and, on success, adds its atoms to the indices.
func (c *SafetyChecker) Admit(q *ir.Query) error {
	if err := c.Check(q); err != nil {
		return err
	}
	c.AdmitUnchecked(q)
	return nil
}

// AdmitUnchecked adds q's atoms to the indices without re-running the
// safety check. It exists for the engine's shard migration path: a query
// re-homed after a relation-family merge was already vetted by its source
// shard's checker, and atoms of previously separate families cannot unify
// (they share no relation name), so re-checking against the merged
// population is redundant work. Callers outside that setting should use
// Admit.
func (c *SafetyChecker) AdmitUnchecked(q *ir.Query) {
	if !c.shared {
		for hi, h := range q.Heads {
			c.heads.Add(graph.AtomRef{Query: q.ID, Pos: hi, Atom: h})
		}
		for pi, p := range q.Posts {
			c.posts.Add(graph.AtomRef{Query: q.ID, Pos: pi, Atom: p})
		}
	}
	c.n++
}

// Remove deletes a previously admitted query's atoms (for retirement or
// staleness eviction). For a shared checker the graph's RemoveQuery does
// the index work; only the admitted count is adjusted here.
func (c *SafetyChecker) Remove(id ir.QueryID) {
	if !c.shared {
		c.heads.RemoveQuery(id)
		c.posts.RemoveQuery(id)
	}
	c.n--
}

// DropRelation clears the checker indexes' key maps for a relation with no
// live atoms (see graph.Index.DropRelation). Returns false if live atoms
// remain. A shared checker owns no index state of its own, so this reports
// success and leaves the sweep to the graph.
func (c *SafetyChecker) DropRelation(rel string) bool {
	if c.shared {
		return true
	}
	h := c.heads.DropRelation(rel)
	p := c.posts.DropRelation(rel)
	return h && p
}

// IndexKeyCount returns the combined key-map footprint of the checker's own
// indexes (observability for relation-family GC); zero for a shared checker,
// whose footprint is the graph's.
func (c *SafetyChecker) IndexKeyCount() int {
	if c.shared {
		return 0
	}
	return c.heads.KeyCount() + c.posts.KeyCount()
}
