// Package match implements the matching and evaluation pipeline of the
// paper's Section 4: unifier propagation over connected components of the
// unifiability graph (Algorithm 1, with a dense union-find fast path over
// interned terms), combined-query construction (Section 4.2), and
// coordinated answering against the memdb substrate.
//
// Evaluation runs through memdb's compiled plans. The hot path —
// EvaluateComponentFast, used by the engine for every closing component —
// compiles the combined query's body straight off the dense unifier: each
// argument resolves to a class constant or a class-root binding slot, the
// plan builder and execution scratch are pooled, and the survivors' heads
// are grounded directly from the winning binding row, so no CombinedQuery,
// map-backed unifier or ir.Substitution is materialised on the way to an
// answer. The literal pipeline (BuildCombined → Simplify → EvalConjunctive)
// remains for diagnostics-bearing callers and for components the fast path
// cannot handle; the two are parity-tested against each other, and memdb's
// tests hold both to the map-backed reference evaluator.
package match

import (
	"fmt"
	"sort"
	"sync"

	"entangle/internal/graph"
	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/unify"
)

// RemovalCause explains why matching removed a query from consideration.
type RemovalCause int

const (
	// CauseUnsatisfiedPost — a postcondition has no unifying head in the
	// workload (indegree < PCCOUNT). In incremental mode such a query may
	// simply be waiting for a partner that has not arrived yet.
	CauseUnsatisfiedPost RemovalCause = iota
	// CauseClash — unifier propagation produced a constant clash; no future
	// arrival can repair this under the safety condition, so the query is
	// permanently unanswerable.
	CauseClash
	// CauseCascade — the query was removed by CLEANUP because a query it
	// depends on (directly or transitively) was removed.
	CauseCascade
	// CauseGlobalMGU — the component's surviving unifiers admit no global
	// most general unifier (Section 4.2), so the component is rejected.
	CauseGlobalMGU
)

// String names the cause.
func (c RemovalCause) String() string {
	switch c {
	case CauseUnsatisfiedPost:
		return "unsatisfied postcondition"
	case CauseClash:
		return "unifier clash"
	case CauseCascade:
		return "cascade cleanup"
	case CauseGlobalMGU:
		return "no global unifier"
	case CauseNoData:
		return "no satisfying data"
	case CauseUnsafe:
		return "unsafe"
	case CauseEvalError:
		return "evaluation failed"
	default:
		return fmt.Sprintf("RemovalCause(%d)", int(c))
	}
}

// Removal pairs a removed query with its cause. Detail, when non-empty,
// carries cause-specific context — for CauseEvalError, the evaluation
// error's text — so operators can tell "no data matched" from "the
// evaluator failed" without grepping server logs.
type Removal struct {
	Query  ir.QueryID
	Cause  RemovalCause
	Detail string
}

// MatchResult is the outcome of running Algorithm 1 on one connected
// component of the unifiability graph.
type MatchResult struct {
	// Survivors are the answerable queries, in insertion order, each with
	// its final unifier.
	Survivors []ir.QueryID
	Unifiers  map[ir.QueryID]*unify.Unifier
	// Global, when non-nil, is the component's global unifier — the mgu of
	// all survivor unifiers — computed as a by-product of the dense fast
	// path. BuildCombined uses it directly instead of re-merging the
	// survivors; consumers must treat it as read-only.
	Global *unify.Unifier
	// Removed lists queries eliminated during matching with their causes.
	Removed []Removal
	// Stats
	Iterations int // number of queue dequeues performed
	MGUCalls   int // number of pairwise unifier merges
}

// Options tunes MatchComponent and the evaluation entry points.
type Options struct {
	// NaiveMGU switches unifier merging to the quadratic baseline (A3).
	NaiveMGU bool
	// Plans, when non-nil, caches compiled evaluation plans by component
	// shape on the dense fast path: repeat shapes skip join-order
	// compilation entirely, executing the cached parameterised plan with
	// the component's constants late-bound. Safe to share across shards.
	Plans *memdb.PlanCache
}

// denseState is the pooled scratch of the fast path: an interner and a
// slice-backed union-find, reused across components and safe for the
// engine's concurrent per-component flush evaluations.
type denseState struct {
	in *unify.Interner
	du *unify.DenseUnifier
}

var densePool = sync.Pool{New: func() any {
	in := unify.NewInterner()
	return &denseState{in: in, du: unify.NewDenseUnifier(in)}
}}

// MatchComponent runs unifier propagation (Algorithm 1) on the queries of
// one connected component of g. The component must be exactly the member
// set of a live connected component (as produced by ConnectedComponents,
// ComponentMembers or ClosedComponents). Queries in the component must have
// pairwise-disjoint variable names (rename apart first).
//
// Two implementations sit behind this entry point. The dense fast path
// handles the dominant case — every member's postconditions are fed and no
// constant clash exists: then no query is ever removed and every final
// unifier merges into one global mgu, so a single union-find pass over the
// component's edges (on interned int slices, no maps, pooled scratch)
// produces the result. If any member is starved or any union clashes, the
// run falls back to the literal Algorithm 1 with per-member unifiers and
// CLEANUP cascades, whose removal attribution the fast path cannot
// reproduce. The A3 NaiveMGU ablation always takes the literal path.
//
// g may be the live graph (under-lock callers) or a graph.CompSnap (the
// engine's out-of-lock coordination rounds): matching only ever reads the
// View surface.
func MatchComponent(g graph.View, component []ir.QueryID, opt Options) *MatchResult {
	if !opt.NaiveMGU {
		if res := matchFast(g, component); res != nil {
			return res
		}
	}
	return matchSlow(g, component, opt)
}

// matchFastCoreInto runs the one-pass dense union-find over the component's
// edges using the caller's scratch (pooled or worker-pinned). ok false means
// the component needs the literal algorithm (dead or starved member, or a
// unifier clash — removal attribution the dense pass cannot reproduce); the
// scratch remains the caller's to reuse either way.
func matchFastCoreInto(st *denseState, g graph.View, component []ir.QueryID) (mgu int, ok bool) {
	for _, id := range component {
		n := g.Node(id)
		if n == nil || len(n.In) < n.Query.PostCount() {
			return 0, false
		}
	}
	st.in.Reset()
	st.du.Reset()
	for _, id := range component {
		n := g.Node(id)
		for _, e := range n.In {
			mgu++
			if err := st.du.UnifyAtoms(e.Head.Atom, e.Post.Atom); err != nil {
				return 0, false
			}
		}
	}
	return mgu, true
}

// matchFast attempts the one-pass dense match; it returns nil when the
// component needs the literal algorithm.
func matchFast(g graph.View, component []ir.QueryID) *MatchResult {
	st := densePool.Get().(*denseState)
	mgu, ok := matchFastCoreInto(st, g, component)
	if !ok {
		densePool.Put(st)
		return nil
	}
	global, err := st.du.Materialize()
	densePool.Put(st)
	if err != nil {
		return nil
	}
	res := &MatchResult{
		Survivors: append(make([]ir.QueryID, 0, len(component)), component...),
		Unifiers:  make(map[ir.QueryID]*unify.Unifier, len(component)),
		Global:    global,
		MGUCalls:  mgu,
	}
	// With no removals, propagation converges every member onto the global
	// unifier's constraints; exposing the global for each survivor imposes
	// exactly the same constraint set downstream.
	for _, id := range component {
		res.Unifiers[id] = global
	}
	return res
}

// matcher carries the state of one literal Algorithm 1 run. It never
// mutates the underlying graph; removals are tracked in an overlay so the
// engine can reuse the graph across incremental rounds. Overlay state is
// keyed by component-local dense indexes (one small map from query ID to
// index, bool slices for the rest) rather than one map per concern.
type matcher struct {
	g       graph.View
	comp    []ir.QueryID
	idx     map[ir.QueryID]int32 // query → dense component-local index
	removed []bool
	inQueue []bool
	u       []*unify.Unifier
	queue   []int32
	res     *MatchResult
	naive   bool // use NaiveMerge (A3 ablation)
}

func matchSlow(g graph.View, component []ir.QueryID, opt Options) *MatchResult {
	n := len(component)
	m := &matcher{
		g:       g,
		comp:    component,
		idx:     make(map[ir.QueryID]int32, n),
		removed: make([]bool, n),
		inQueue: make([]bool, n),
		u:       make([]*unify.Unifier, n),
		res:     &MatchResult{Unifiers: make(map[ir.QueryID]*unify.Unifier)},
		naive:   opt.NaiveMGU,
	}
	for i, id := range component {
		m.idx[id] = int32(i)
		m.u[i] = unify.New()
	}

	// Phase 1 (graph construction residue): initialise each node's unifier
	// from its incoming edges, and remove nodes whose indegree is below
	// their postcondition count — some postcondition has no unifying head.
	for i, id := range component {
		n := g.Node(id)
		if n == nil {
			continue
		}
		if m.removed[i] {
			continue
		}
		if m.liveInDegree(id) < n.Query.PostCount() {
			m.cleanup(int32(i), CauseUnsatisfiedPost)
			continue
		}
		ok := true
		for _, e := range n.In {
			j, member := m.idx[e.From]
			if !member || m.removed[j] {
				continue
			}
			m.res.MGUCalls++
			if _, err := m.u[i].UnifyAtoms(e.Head.Atom, e.Post.Atom); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			m.cleanup(int32(i), CauseClash)
		}
	}
	// Re-check indegrees: cleanups above may have starved other nodes.
	m.sweepStarved()

	// Phase 2: Algorithm 1 — propagate unifiers along edges until fixpoint.
	for i := range component {
		if !m.removed[i] {
			m.enqueue(int32(i))
		}
	}
	for len(m.queue) > 0 {
		pi := m.queue[0]
		m.queue = m.queue[1:]
		m.inQueue[pi] = false
		if m.removed[pi] {
			continue
		}
		m.res.Iterations++
		n := m.g.Node(m.comp[pi])
		if n == nil {
			continue
		}
		for _, e := range n.Out {
			ci, member := m.idx[e.To]
			if !member || m.removed[ci] || m.removed[pi] {
				continue
			}
			m.res.MGUCalls++
			changed, err := m.merge(m.u[ci], m.u[pi])
			if err != nil {
				m.cleanup(ci, CauseClash)
				m.sweepStarved()
				continue
			}
			if changed {
				m.enqueue(ci)
			}
		}
	}

	// Collect survivors in insertion order.
	for i, id := range component {
		if !m.removed[i] && g.Node(id) != nil {
			m.res.Survivors = append(m.res.Survivors, id)
			m.res.Unifiers[id] = m.u[i]
		}
	}
	return m.res
}

func (m *matcher) merge(dst, src *unify.Unifier) (bool, error) {
	if m.naive {
		return dst.NaiveMerge(src)
	}
	return dst.Merge(src)
}

// liveInDegree counts in-edges whose source is a live member of the
// component overlay.
func (m *matcher) liveInDegree(id ir.QueryID) int {
	n := m.g.Node(id)
	if n == nil {
		return 0
	}
	c := 0
	for _, e := range n.In {
		if j, member := m.idx[e.From]; member && !m.removed[j] {
			c++
		}
	}
	return c
}

// enqueue adds a node to the updates queue if absent.
func (m *matcher) enqueue(i int32) {
	if m.inQueue[i] || m.removed[i] {
		return
	}
	m.inQueue[i] = true
	m.queue = append(m.queue, i)
}

// cleanup implements CLEANUP(n): remove the node and all its descendants
// from the overlay and the updates queue (Section 4.1.3). The triggering
// node gets the given cause; descendants get CauseCascade.
func (m *matcher) cleanup(i int32, cause RemovalCause) {
	if m.removed[i] {
		return
	}
	m.removed[i] = true
	m.inQueue[i] = false
	m.res.Removed = append(m.res.Removed, Removal{Query: m.comp[i], Cause: cause})
	for _, d := range m.g.Descendants(m.comp[i]) {
		j, member := m.idx[d]
		if !member || m.removed[j] {
			continue
		}
		m.removed[j] = true
		m.inQueue[j] = false
		m.res.Removed = append(m.res.Removed, Removal{Query: d, Cause: CauseCascade})
	}
}

// sweepStarved removes nodes whose live indegree dropped below their
// postcondition count after cleanups, repeating until stable. Under safety
// each postcondition has at most one feeding head, so once the feeder is
// gone the postcondition is permanently unsatisfied within this workload.
func (m *matcher) sweepStarved() {
	for {
		changed := false
		for i, id := range m.comp {
			if m.removed[i] {
				continue
			}
			n := m.g.Node(id)
			if n == nil {
				continue
			}
			if m.liveInDegree(id) < n.Query.PostCount() {
				m.cleanup(int32(i), CauseCascade)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// sortRemovals orders removals by query ID for deterministic reporting.
func sortRemovals(rs []Removal) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Query < rs[j].Query })
}
