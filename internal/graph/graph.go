package graph

import (
	"fmt"
	"sort"
	"strings"

	"entangle/internal/ir"
)

// Edge records that head atom Head of query From unifies with postcondition
// atom Post of query To. The unifiability graph is a multigraph: several
// edges may connect the same pair of nodes, one per unifying (head,
// postcondition) atom pair.
type Edge struct {
	From, To ir.QueryID
	Head     AtomRef // head atom of From
	Post     AtomRef // postcondition atom of To
}

// Node is a query node in the unifiability graph.
type Node struct {
	Query *ir.Query
	Out   []*Edge // this node's head feeds these postconditions
	In    []*Edge // these heads feed this node's postconditions
	pos   int     // insertion sequence number, for deterministic ordering
}

// InDegree returns the number of incoming edges (INDEGREE in Section 4.1.1).
func (n *Node) InDegree() int { return len(n.In) }

// Graph is the unifiability multigraph over a set of entangled queries.
// It supports incremental insertion (AddQuery) and removal (RemoveQuery),
// which the engine's incremental mode relies on. Not safe for concurrent
// mutation: each engine shard owns one Graph (plus its atom indexes)
// exclusively and serialises access behind the shard lock, so the graph
// itself needs no synchronisation. Removal from one graph followed by
// insertion into another (the engine's shard-migration path) is supported —
// edge discovery is order-independent, so re-adding a component member by
// member rebuilds exactly the edges it had.
type Graph struct {
	nodes    map[ir.QueryID]*Node
	order    []ir.QueryID // insertion order, for deterministic traversal
	nextPos  int          // next insertion sequence number (stored on the Node)
	headIx   *Index       // index over head atoms
	postIx   *Index       // index over postcondition atoms
	useIndex bool
	comp     *componentIndex // incremental components + closedness counters

	// removedOrder tracks removed ids whose tombstoned order entries have
	// not been compacted away yet, so re-adding such an id (the engine's
	// migration path can bounce a query back) purges the stale entry
	// instead of duplicating the id in traversal order.
	removedOrder map[ir.QueryID]bool

	lookupBuf []AtomRef // reused across AddQuery edge-discovery lookups
}

// New returns an empty unifiability graph that uses the atom index during
// construction.
func New() *Graph { return NewWithOptions(true) }

// NewWithOptions returns an empty graph; useIndex false switches edge
// discovery to linear scans (the A1 ablation).
func NewWithOptions(useIndex bool) *Graph {
	return &Graph{
		nodes:        make(map[ir.QueryID]*Node),
		headIx:       NewIndex(),
		postIx:       NewIndex(),
		useIndex:     useIndex,
		comp:         newComponentIndex(),
		removedOrder: make(map[ir.QueryID]bool),
	}
}

// DropRelation clears the atom indexes' key maps for a relation with no
// live atoms in this graph (see Index.DropRelation). Returns false if live
// atoms remain in either index.
func (g *Graph) DropRelation(rel string) bool {
	h := g.headIx.DropRelation(rel)
	p := g.postIx.DropRelation(rel)
	return h && p
}

// HeadIndex exposes the graph's head-atom index. The engine's safety
// checker layers on it (the admitted set and the graph's node set are the
// same queries) so each shard indexes every atom once instead of twice.
// Callers must not mutate it; AddQuery/RemoveQuery own its contents.
func (g *Graph) HeadIndex() *Index { return g.headIx }

// PostIndex exposes the graph's postcondition-atom index (see HeadIndex).
func (g *Graph) PostIndex() *Index { return g.postIx }

// IndexKeyCount returns the combined key-map footprint of the graph's atom
// indexes (observability for relation-family GC).
func (g *Graph) IndexKeyCount() int { return g.headIx.KeyCount() + g.postIx.KeyCount() }

// Build constructs the unifiability graph of the given queries. Queries must
// already be renamed apart and have unique IDs.
func Build(queries []*ir.Query) (*Graph, error) {
	g := New()
	for _, q := range queries {
		if err := g.AddQuery(q); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Len returns the number of nodes currently in the graph.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node for the given query ID, or nil.
func (g *Graph) Node(id ir.QueryID) *Node { return g.nodes[id] }

// QueryIDs returns the live query IDs in insertion order.
func (g *Graph) QueryIDs() []ir.QueryID {
	out := make([]ir.QueryID, 0, len(g.nodes))
	for _, id := range g.order {
		if _, ok := g.nodes[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// AddQuery inserts a query node and discovers all edges between the new
// query and the existing graph (in both directions). This is the
// incremental-maintenance step used when queries arrive as a stream
// (Section 5.1).
//
// Self-edges are never created: a query cannot be its own coordination
// partner. The paper's experimental workloads rely on this — e.g. the
// two-way query {R(x, ITH)} R(Jerry, ITH) :- … has a postcondition that
// syntactically unifies with its own head (x ↦ Jerry), but the intended
// partner is always another user's query.
func (g *Graph) AddQuery(q *ir.Query) error {
	if _, dup := g.nodes[q.ID]; dup {
		return fmt.Errorf("graph: duplicate query id %d", q.ID)
	}
	if g.removedOrder[q.ID] {
		// Re-added after removal with its tombstoned order entry still in
		// place: purge it so the id appears once, at its new position.
		live := g.order[:0]
		for _, qid := range g.order {
			if qid != q.ID {
				live = append(live, qid)
			}
		}
		g.order = live
		delete(g.removedOrder, q.ID)
	}
	n := &Node{Query: q, pos: g.nextPos}
	g.nodes[q.ID] = n
	g.order = append(g.order, q.ID)
	g.nextPos++
	g.comp.addNode(g, q.ID, q.PostCount())

	// New heads against existing (and own) postconditions.
	for hi, h := range q.Heads {
		g.headIx.Add(AtomRef{Query: q.ID, Pos: hi, Atom: h})
	}
	for pi, p := range q.Posts {
		g.postIx.Add(AtomRef{Query: q.ID, Pos: pi, Atom: p})
	}
	// Edges out of q: q's heads unify with other queries' postconditions.
	for hi, h := range q.Heads {
		refs := g.lookup(g.postIx, h)
		for _, ref := range refs {
			if ref.Query == q.ID {
				continue // no self-edges
			}
			g.link(&Edge{From: q.ID, To: ref.Query, Head: AtomRef{Query: q.ID, Pos: hi, Atom: h}, Post: ref})
		}
	}
	// Edges into q: other queries' heads unify with q's postconditions.
	for pi, p := range q.Posts {
		refs := g.lookup(g.headIx, p)
		for _, ref := range refs {
			if ref.Query == q.ID {
				continue // no self-edges
			}
			g.link(&Edge{From: ref.Query, To: q.ID, Head: ref, Post: AtomRef{Query: q.ID, Pos: pi, Atom: p}})
		}
	}
	return nil
}

// lookup resolves a probe through the graph's reusable buffer; the result
// is valid until the next lookup call.
func (g *Graph) lookup(ix *Index, probe ir.Atom) []AtomRef {
	if g.useIndex {
		g.lookupBuf = ix.AppendLookup(g.lookupBuf[:0], probe)
	} else {
		g.lookupBuf = ix.AppendScanLookup(g.lookupBuf[:0], probe)
	}
	return g.lookupBuf
}

func (g *Graph) link(e *Edge) {
	from := g.nodes[e.From]
	to := g.nodes[e.To]
	if from == nil || to == nil {
		return // endpoint already removed
	}
	from.Out = append(from.Out, e)
	to.In = append(to.In, e)
	g.comp.onLink(e.From, e.To, len(to.In), to.Query.PostCount())
}

// RemoveQuery deletes a node and all its incident edges. It returns false if
// the query is not present.
func (g *Graph) RemoveQuery(id ir.QueryID) bool {
	n, ok := g.nodes[id]
	if !ok {
		return false
	}
	g.comp.removeNode(id)
	for _, e := range n.Out {
		if peer := g.nodes[e.To]; peer != nil && e.To != id {
			peer.In = dropEdges(peer.In, id)
		}
	}
	for _, e := range n.In {
		if peer := g.nodes[e.From]; peer != nil && e.From != id {
			peer.Out = dropEdges(peer.Out, id)
		}
	}
	delete(g.nodes, id)
	g.headIx.RemoveQuery(id)
	g.postIx.RemoveQuery(id)
	g.removedOrder[id] = true
	// Compact the insertion-order slice once it is mostly tombstones, so
	// long-running engines do not accumulate dead entries.
	if len(g.order) >= 64 && len(g.nodes)*2 < len(g.order) {
		live := g.order[:0]
		for _, qid := range g.order {
			if _, ok := g.nodes[qid]; ok {
				live = append(live, qid)
			}
		}
		g.order = live
		clear(g.removedOrder) // every tombstoned entry is gone now
	}
	return true
}

// dropEdges removes every edge touching the given query from the slice.
func dropEdges(edges []*Edge, id ir.QueryID) []*Edge {
	out := edges[:0]
	for _, e := range edges {
		if e.From != id && e.To != id {
			out = append(out, e)
		}
	}
	return out
}

// Descendants returns the set of nodes reachable from start (excluding start
// itself unless it lies on a cycle), via breadth-first search over outgoing
// edges. CLEANUP (Section 4.1.3) removes a node together with this set.
func (g *Graph) Descendants(start ir.QueryID) []ir.QueryID {
	seen := map[ir.QueryID]bool{}
	var out []ir.QueryID
	queue := []ir.QueryID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := g.nodes[cur]
		if n == nil {
			continue
		}
		for _, e := range n.Out {
			if !seen[e.To] {
				seen[e.To] = true
				out = append(out, e.To)
				queue = append(queue, e.To)
			}
		}
	}
	return out
}

// ConnectedComponents partitions the live nodes into connected components of
// the underlying undirected graph (Section 4.1.2). Components are returned
// with members in insertion order, components ordered by their earliest
// member, so output is deterministic.
func (g *Graph) ConnectedComponents() [][]ir.QueryID {
	comp := make(map[ir.QueryID]int)
	next := 0
	for _, id := range g.order {
		if _, ok := g.nodes[id]; !ok {
			continue
		}
		if _, done := comp[id]; done {
			continue
		}
		// BFS over both edge directions.
		queue := []ir.QueryID{id}
		comp[id] = next
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			n := g.nodes[cur]
			for _, e := range n.Out {
				if _, done := comp[e.To]; !done {
					comp[e.To] = next
					queue = append(queue, e.To)
				}
			}
			for _, e := range n.In {
				if _, done := comp[e.From]; !done {
					comp[e.From] = next
					queue = append(queue, e.From)
				}
			}
		}
		next++
	}
	out := make([][]ir.QueryID, next)
	for _, id := range g.order {
		if c, ok := comp[id]; ok {
			out[c] = append(out[c], id)
		}
	}
	return out
}

// ComponentOf returns the IDs in the connected component containing id,
// in insertion order. Returns nil if id is not in the graph. Cost is
// O(component), independent of graph size — the incremental engine calls
// this on every arrival.
func (g *Graph) ComponentOf(id ir.QueryID) []ir.QueryID {
	if _, ok := g.nodes[id]; !ok {
		return nil
	}
	seen := map[ir.QueryID]bool{id: true}
	queue := []ir.QueryID{id}
	out := []ir.QueryID{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := g.nodes[cur]
		visit := func(qid ir.QueryID) {
			if !seen[qid] {
				seen[qid] = true
				queue = append(queue, qid)
				out = append(out, qid)
			}
		}
		for _, e := range n.Out {
			visit(e.To)
		}
		for _, e := range n.In {
			visit(e.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return g.nodes[out[i]].pos < g.nodes[out[j]].pos })
	return out
}

// SCCs computes the strongly connected components of the graph using an
// iterative Tarjan algorithm (no recursion, so deep chains cannot overflow
// the stack). Components are returned in reverse topological order of the
// condensation, members sorted by insertion order.
func (g *Graph) SCCs() [][]ir.QueryID {
	index := make(map[ir.QueryID]int)
	low := make(map[ir.QueryID]int)
	onStack := make(map[ir.QueryID]bool)
	var stack []ir.QueryID
	var sccs [][]ir.QueryID
	counter := 0

	orderPos := make(map[ir.QueryID]int, len(g.order))
	for i, id := range g.order {
		orderPos[id] = i
	}

	type frame struct {
		id   ir.QueryID
		edge int
	}
	for _, root := range g.order {
		if _, ok := g.nodes[root]; !ok {
			continue
		}
		if _, visited := index[root]; visited {
			continue
		}
		work := []frame{{id: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(work) > 0 {
			f := &work[len(work)-1]
			n := g.nodes[f.id]
			if f.edge < len(n.Out) {
				to := n.Out[f.edge].To
				f.edge++
				if _, visited := index[to]; !visited {
					index[to] = counter
					low[to] = counter
					counter++
					stack = append(stack, to)
					onStack[to] = true
					work = append(work, frame{id: to})
				} else if onStack[to] && index[to] < low[f.id] {
					low[f.id] = index[to]
				}
				continue
			}
			// Done with f.id: pop and propagate lowlink.
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := &work[len(work)-1]
				if low[f.id] < low[parent.id] {
					low[parent.id] = low[f.id]
				}
			}
			if low[f.id] == index[f.id] {
				var scc []ir.QueryID
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == f.id {
						break
					}
				}
				sort.Slice(scc, func(i, j int) bool { return orderPos[scc[i]] < orderPos[scc[j]] })
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// CheckUCS verifies the uniqueness-of-coordination-structure property
// (Section 3.1.2): every node of the graph must belong to a strongly
// connected component such that no edge leaves its SCC — equivalently, the
// condensation of the graph has no edges. It returns the IDs of queries
// that violate the property (targets of cross-SCC edges), empty if UCS
// holds.
func (g *Graph) CheckUCS() []ir.QueryID {
	sccOf := make(map[ir.QueryID]int)
	for i, scc := range g.SCCs() {
		for _, id := range scc {
			sccOf[id] = i
		}
	}
	violSet := make(map[ir.QueryID]bool)
	for _, id := range g.order {
		n, ok := g.nodes[id]
		if !ok {
			continue
		}
		for _, e := range n.Out {
			if sccOf[e.From] != sccOf[e.To] {
				// The edge crosses SCCs: the target query can coordinate
				// "locally" without the source, as in Figure 3 (b).
				violSet[e.To] = true
			}
		}
	}
	var out []ir.QueryID
	for _, id := range g.order {
		if violSet[id] {
			out = append(out, id)
		}
	}
	return out
}

// String renders the graph adjacency for diagnostics.
func (g *Graph) String() string {
	var b strings.Builder
	for _, id := range g.order {
		n, ok := g.nodes[id]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "q%d:", id)
		for _, e := range n.Out {
			fmt.Fprintf(&b, " →q%d[%s~%s]", e.To, e.Head.Atom, e.Post.Atom)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
