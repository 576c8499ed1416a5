package graph

import (
	"sort"

	"entangle/internal/ir"
)

// componentIndex maintains the connected components of the unifiability
// graph incrementally, together with a per-component closedness counter, so
// the engine's per-arrival path can decide "did this arrival close its
// component?" in amortized O(α) instead of BFS-walking the component and
// re-scanning every member's indegree.
//
// Structure: a union-find over live query IDs. AddQuery creates a singleton
// set; every discovered edge unions its endpoints (weighted by member-list
// size, so list concatenation is O(n log n) amortized overall). Each root
// carries
//
//	unsat = Σ over members of max(0, PostCount − InDegree)
//
// which hits zero exactly when every member's indegree has reached its
// postcondition count — the componentClosed predicate. Under the safety
// condition each postcondition has at most one feeding head, so InDegree
// never exceeds PostCount and the counter simply counts unfed
// postconditions; the max(0, ·) clamp keeps the equivalence exact even for
// graphs built without admission safety (as some tests do).
//
// Removal can split a component, which union-find cannot express directly.
// RemoveQuery therefore only marks the victim's root dirty; the next probe
// that touches a dirty component rebuilds just that component from the live
// graph (BFS over its former member list), re-partitioning it into its true
// components with exact counters. The rebuild is scoped: components never
// touched by a removal are never rescanned. Parent entries of removed
// queries stay behind as tombstones until that rebuild — find must keep
// working for the remaining members whose paths run through them.
//
// The per-node state lives in one map of centry (parent pointer plus, at
// roots, the unsat counter): the submit path inserts exactly one entry per
// arrival, which keeps this index's contribution to the per-arrival
// allocation budget at a single map write.
type componentIndex struct {
	nodes   map[ir.QueryID]centry       // node → parent link + root payload
	members map[ir.QueryID][]ir.QueryID // root → member list (absent for singletons)
	dirty   map[ir.QueryID]bool         // root → a member was removed; rebuild before trusting
	clock   uint64                      // monotone source for component versions
}

// centry is one union-find slot. parent points up the tree (roots point to
// themselves); unsat and ver are meaningful only while the entry is a root.
// ver changes whenever the component's membership or edge set could have:
// node insertion, union, member removal, and rebuild all stamp a fresh value
// off the index clock. The engine's optimistic coordination rounds snapshot
// ver and treat any difference at validation time as "a concurrent mutation
// touched this component". Versions are never reused, so a component that is
// torn down and reassembled with the same members still reads as changed.
type centry struct {
	parent ir.QueryID
	unsat  int32
	ver    uint64
}

// tick returns the next component version.
func (c *componentIndex) tick() uint64 {
	c.clock++
	return c.clock
}

func newComponentIndex() *componentIndex {
	return &componentIndex{
		nodes:   make(map[ir.QueryID]centry),
		members: make(map[ir.QueryID][]ir.QueryID),
		dirty:   make(map[ir.QueryID]bool),
	}
}

// find returns the set root of id with path compression. id must be present.
func (c *componentIndex) find(id ir.QueryID) ir.QueryID {
	root := id
	for {
		e := c.nodes[root]
		if e.parent == root {
			break
		}
		root = e.parent
	}
	for id != root {
		e := c.nodes[id]
		if e.parent == root {
			break
		}
		next := e.parent
		e.parent = root
		c.nodes[id] = e
		id = next
	}
	return root
}

// membersOf returns the member list of a root, synthesizing the implicit
// singleton list. The returned slice aliases internal state; callers must
// not retain it across mutations.
func (c *componentIndex) membersOf(root ir.QueryID, buf []ir.QueryID) []ir.QueryID {
	if m, ok := c.members[root]; ok {
		return m
	}
	return append(buf[:0], root)
}

// addNode registers a fresh singleton component. If the ID was removed
// earlier and its tombstone still lingers in a not-yet-rebuilt component,
// that component is rebuilt first so the fresh node starts clean (the graph
// allows re-adding an ID after RemoveQuery; the engine's migration path
// does this across graphs, some tests within one).
func (c *componentIndex) addNode(g *Graph, id ir.QueryID, postCount int) {
	if _, stale := c.nodes[id]; stale {
		c.rebuild(g, c.find(id))
	}
	c.nodes[id] = centry{parent: id, unsat: int32(postCount), ver: c.tick()}
}

// onLink accounts for a newly discovered edge: the endpoints' components
// merge, and if the edge feeds one of the target's still-unfed
// postconditions the merged component's unsat counter drops by one.
// toInDegree and toPostCount describe the target node after the edge was
// appended.
func (c *componentIndex) onLink(from, to ir.QueryID, toInDegree, toPostCount int) {
	root := c.union(c.find(from), c.find(to))
	if toInDegree <= toPostCount {
		e := c.nodes[root]
		e.unsat--
		c.nodes[root] = e
	}
}

// union merges the sets rooted at a and b (no-op when equal), returning the
// surviving root. The smaller member list is appended to the larger.
func (c *componentIndex) union(a, b ir.QueryID) ir.QueryID {
	if a == b {
		return a
	}
	la, lb := 1, 1
	if m, ok := c.members[a]; ok {
		la = len(m)
	}
	if m, ok := c.members[b]; ok {
		lb = len(m)
	}
	if la < lb {
		a, b = b, a
	}
	ma, ok := c.members[a]
	if !ok {
		ma = append(make([]ir.QueryID, 0, la+lb), a)
	}
	if mb, ok := c.members[b]; ok {
		ma = append(ma, mb...)
		delete(c.members, b)
	} else {
		ma = append(ma, b)
	}
	c.members[a] = ma
	ea, eb := c.nodes[a], c.nodes[b]
	eb.parent = a
	c.nodes[b] = eb
	ea.unsat += eb.unsat
	ea.ver = c.tick()
	c.nodes[a] = ea
	if c.dirty[b] {
		c.dirty[a] = true
		delete(c.dirty, b)
	}
	return a
}

// removeNode marks the component containing id dirty and stamps a fresh
// version, so a coordination round snapshotted before the removal can never
// validate against it. The actual split (if any) is discovered by the next
// rebuild; until then the component's counters and membership are not
// trusted.
func (c *componentIndex) removeNode(id ir.QueryID) {
	root := c.find(id)
	e := c.nodes[root]
	e.ver = c.tick()
	c.nodes[root] = e
	c.dirty[root] = true
}

// cleanRoot returns the up-to-date root for id, rebuilding its component
// first when dirty. Returns false if id is no longer live in the graph.
func (c *componentIndex) cleanRoot(g *Graph, id ir.QueryID) (ir.QueryID, bool) {
	if _, live := g.nodes[id]; !live {
		return 0, false
	}
	root := c.find(id)
	if c.dirty[root] {
		c.rebuild(g, root)
		root = c.find(id)
	}
	return root, true
}

// rebuild re-partitions the (former) component rooted at root against the
// live graph: tombstoned members are dropped, survivors are regrouped into
// their true connected components with exact unsat counters. Cost is
// O(former component), touching nothing outside it.
func (c *componentIndex) rebuild(g *Graph, root ir.QueryID) {
	var single [1]ir.QueryID
	old := c.membersOf(root, single[:])
	live := make([]ir.QueryID, 0, len(old))
	for _, id := range old {
		delete(c.nodes, id)
		if _, ok := g.nodes[id]; ok {
			live = append(live, id)
		}
	}
	delete(c.members, root)
	delete(c.dirty, root)

	var queue []ir.QueryID
	for _, start := range live {
		if _, done := c.nodes[start]; done {
			continue
		}
		c.nodes[start] = centry{parent: start}
		unsat := int32(0)
		count := 1
		queue = append(queue[:0], start)
		var comp []ir.QueryID
		for len(queue) > 0 {
			cur := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			n := g.nodes[cur]
			if d := n.Query.PostCount() - len(n.In); d > 0 {
				unsat += int32(d)
			}
			for _, e := range n.Out {
				if _, done := c.nodes[e.To]; !done {
					c.nodes[e.To] = centry{parent: start}
					count++
					queue = append(queue, e.To)
					comp = append(comp, e.To)
				}
			}
			for _, e := range n.In {
				if _, done := c.nodes[e.From]; !done {
					c.nodes[e.From] = centry{parent: start}
					count++
					queue = append(queue, e.From)
					comp = append(comp, e.From)
				}
			}
		}
		if count > 1 {
			c.members[start] = append([]ir.QueryID{start}, comp...)
		}
		c.nodes[start] = centry{parent: start, unsat: unsat, ver: c.tick()}
	}
}

// ComponentClosed reports whether the component containing id is closed:
// every member's live indegree has reached its postcondition count, so the
// component can be matched conclusively. It is the constant-time replacement
// for BFS-walking the component and scanning member indegrees, and agrees
// with that derivation exactly (see the randomized oracle test). Returns
// false when id is not in the graph.
func (g *Graph) ComponentClosed(id ir.QueryID) bool {
	root, ok := g.comp.cleanRoot(g, id)
	if !ok {
		return false
	}
	return g.comp.nodes[root].unsat == 0
}

// ComponentVersion returns the current version of the component containing
// id (rebuilding it first if a removal left it stale), or false when id is
// not in the graph. The version changes — strictly increases over the life
// of the graph — whenever the component's membership or edge set could have
// changed: arrivals that merge into it, removals of any member, and the
// rebuilds that follow splits all stamp a fresh value. Two equal reads with
// the same root therefore guarantee the component the engine snapshotted is
// the component it is about to deliver for.
func (g *Graph) ComponentVersion(id ir.QueryID) (uint64, bool) {
	root, ok := g.comp.cleanRoot(g, id)
	if !ok {
		return 0, false
	}
	return g.comp.nodes[root].ver, true
}

// ComponentMembers returns the live members of the component containing id
// in insertion order, or nil if id is not in the graph. Unlike ComponentOf
// it does not traverse edges: the membership is read off the incremental
// component index (rebuilding it first if a removal left it stale).
func (g *Graph) ComponentMembers(id ir.QueryID) []ir.QueryID {
	root, ok := g.comp.cleanRoot(g, id)
	if !ok {
		return nil
	}
	var single [1]ir.QueryID
	m := g.comp.membersOf(root, single[:])
	out := make([]ir.QueryID, len(m))
	copy(out, m)
	sort.Slice(out, func(i, j int) bool { return g.nodes[out[i]].pos < g.nodes[out[j]].pos })
	return out
}

// ClosedComponents enumerates only the components that are currently closed,
// members in insertion order, components ordered by their earliest member —
// the same determinism contract as ConnectedComponents, but without visiting
// open components at all. The engine's flush and staleness paths use it to
// avoid re-deriving closedness for the (typically dominant) open remainder
// of the pending set.
func (g *Graph) ClosedComponents() [][]ir.QueryID {
	// Rebuild every dirty component first; iterate over a snapshot of the
	// roots because rebuilds mutate the maps.
	if len(g.comp.dirty) > 0 {
		roots := make([]ir.QueryID, 0, len(g.comp.dirty))
		for root := range g.comp.dirty {
			roots = append(roots, root)
		}
		for _, root := range roots {
			if g.comp.dirty[root] {
				g.comp.rebuild(g, root)
			}
		}
	}
	var out [][]ir.QueryID
	for id, e := range g.comp.nodes {
		if e.parent != id || e.unsat != 0 {
			continue // non-root, or open component
		}
		var single [1]ir.QueryID
		m := g.comp.membersOf(id, single[:])
		comp := make([]ir.QueryID, len(m))
		copy(comp, m)
		sort.Slice(comp, func(i, j int) bool { return g.nodes[comp[i]].pos < g.nodes[comp[j]].pos })
		out = append(out, comp)
	}
	sort.Slice(out, func(i, j int) bool { return g.nodes[out[i][0]].pos < g.nodes[out[j][0]].pos })
	return out
}
