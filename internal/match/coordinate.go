package match

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"entangle/internal/graph"
	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/unify"
)

// CoordinateOptions tunes the end-to-end coordination pipeline.
type CoordinateOptions struct {
	// EnforceSafety removes unsafe queries instead of failing the batch.
	EnforceSafety bool
	// RequireUCS rejects the batch if the uniqueness-of-coordination-
	// structure property does not hold (Section 3.1.2). When false, UCS
	// violations are reported in the outcome but evaluation proceeds (the
	// algorithm then answers the maximal matched structure, which may leave
	// some locally-coordinable subsets unanswered, as Figure 3 (b) warns).
	RequireUCS bool
	// Parallelism bounds concurrent component evaluation; 0 means
	// GOMAXPROCS. Partitioning makes components independent (Section 4.1.2).
	Parallelism int
	// Rand seeds the CHOOSE 1 random choice; nil picks the first valuation
	// deterministically.
	Rand *rand.Rand
	// Matching options (ablations).
	Match Options
}

// Outcome reports the result of coordinated answering of a batch.
type Outcome struct {
	// Answers holds one answer per successfully coordinated query.
	Answers map[ir.QueryID]ir.Answer
	// Rejected lists queries that could not be answered, with causes.
	Rejected []Removal
	// UnsafeRemoved lists queries dropped by safety enforcement.
	UnsafeRemoved []ir.QueryID
	// UCSViolations lists queries breaking the UCS property (informational
	// unless RequireUCS).
	UCSViolations []ir.QueryID
	// Combined holds the combined query evaluated for each component that
	// produced answers (diagnostic; order follows component order).
	Combined []*ir.CombinedQuery
	// Components is the number of connected components processed.
	Components int
}

// CauseNoData marks queries whose combined query evaluated to zero rows on
// the current database snapshot.
const CauseNoData RemovalCause = 100

// CauseUnsafe marks queries removed by the safety enforcement pre-pass.
const CauseUnsafe RemovalCause = 101

// CauseEvalError marks queries whose component evaluation itself failed
// (plan execution error, not an empty result). The Removal's Detail carries
// the error text. Distinct from CauseNoData so operators can tell a broken
// evaluation from a legitimately unmatched workload.
const CauseEvalError RemovalCause = 102

// Coordinate performs coordinated query answering for a batch of entangled
// queries (set-at-a-time mode): safety enforcement, unifiability-graph
// construction, partitioning, per-component matching (Algorithm 1),
// combined-query construction and evaluation on db, and answer splitting.
//
// The database must not change during the call (Section 2.3: "it is
// necessary to ensure that the underlying database is not changed during
// the answering process"); memdb's snapshot isolation per evaluation call
// plus the engine's single flush goroutine provide this.
func Coordinate(db *memdb.DB, queries []*ir.Query, opt CoordinateOptions) (*Outcome, error) {
	out := &Outcome{Answers: make(map[ir.QueryID]ir.Answer)}

	for _, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}

	// Rename apart so unifier propagation sees disjoint variables.
	renamed := make([]*ir.Query, len(queries))
	byID := make(map[ir.QueryID]*ir.Query, len(queries))
	for i, q := range queries {
		r := q.RenameApart()
		renamed[i] = r
		if _, dup := byID[r.ID]; dup {
			return nil, fmt.Errorf("match: duplicate query id %d in batch", r.ID)
		}
		byID[r.ID] = r
	}

	// Safety.
	if viol := CheckSafety(renamed); len(viol) > 0 {
		if !opt.EnforceSafety {
			return nil, fmt.Errorf("match: unsafe workload: %s (and %d more)", viol[0], len(viol)-1)
		}
		kept, removed := EnforceSafety(renamed)
		renamed = kept
		for _, q := range removed {
			out.UnsafeRemoved = append(out.UnsafeRemoved, q.ID)
			out.Rejected = append(out.Rejected, Removal{Query: q.ID, Cause: CauseUnsafe})
			delete(byID, q.ID)
		}
	}

	g, err := graph.Build(renamed)
	if err != nil {
		return nil, err
	}

	// UCS.
	out.UCSViolations = g.CheckUCS()
	if opt.RequireUCS && len(out.UCSViolations) > 0 {
		return nil, fmt.Errorf("match: workload violates UCS: queries %v can coordinate locally without their partners", out.UCSViolations)
	}

	comps := g.ConnectedComponents()
	out.Components = len(comps)

	type compResult struct {
		answers  []ir.Answer
		rejected []Removal
		combined *ir.CombinedQuery
	}
	results := make([]compResult, len(comps))

	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(comps) {
		par = len(comps)
	}
	if par < 1 {
		par = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	var firstErr error
	var errMu sync.Mutex
	seed := int64(0)
	if opt.Rand != nil {
		seed = opt.Rand.Int63()
	}
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range work {
				// One splitmix stream per component instead of a ~5 KB
				// rand.Rand allocation: a machine word on the stack, same
				// fixed-seed reproducibility.
				var rnd memdb.Rng
				if opt.Rand != nil {
					sm := memdb.NewSplitMix(seed + int64(ci))
					rnd = &sm
				}
				ans, rej, cq, err := EvaluateComponent(db, g, comps[ci], byID, rnd, opt.Match)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				results[ci] = compResult{answers: ans, rejected: rej, combined: cq}
			}
		}()
	}
	for ci := range comps {
		work <- ci
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	for _, r := range results {
		for _, a := range r.answers {
			out.Answers[a.QueryID] = a
		}
		out.Rejected = append(out.Rejected, r.rejected...)
		if r.combined != nil {
			out.Combined = append(out.Combined, r.combined)
		}
	}
	sortRemovals(out.Rejected)
	return out, nil
}

// EvaluateComponent matches one component, builds and evaluates its combined
// query, and splits the answers. byID must map every component member to its
// renamed-apart query. A nil rnd picks the first valuation. The combined
// query is returned for diagnostics; callers that do not need it should use
// EvaluateComponentFast, which skips materialising it.
func EvaluateComponent(db *memdb.DB, g graph.View, component []ir.QueryID, byID map[ir.QueryID]*ir.Query, rnd memdb.Rng, mopt Options) (answers []ir.Answer, rejected []Removal, combined *ir.CombinedQuery, err error) {
	return evaluateViaCombined(db, g, component, byID, rnd, mopt)
}

// Scratch pins one worker's complete fast-path evaluation state — the dense
// matcher's interner and union-find plus the compiled-evaluation scratch —
// to the caller instead of the package-level sync.Pools. The engine's
// persistent eval workers each own one, so steady-state component
// evaluation allocates nothing regardless of pool pressure elsewhere.
// A Scratch is not safe for concurrent use.
type Scratch struct {
	ds denseState
	ev evalScratch
}

// NewScratch returns a ready-to-use pinned evaluation scratch.
func NewScratch() *Scratch {
	in := unify.NewInterner()
	return &Scratch{ds: denseState{in: in, du: unify.NewDenseUnifier(in)}}
}

// EvaluateComponentFast is the engine's per-component answer path: the same
// outcomes as EvaluateComponent (identical answers, rejections, and CHOOSE
// draws for the stream derived from seed), without the CombinedQuery
// diagnostic or its construction cost. When the dense matcher fast path
// applies, the component evaluates through a compiled plan built straight
// off the interned unifier with pooled scratch; otherwise (clash or
// starvation, or the NaiveMGU ablation) it falls back to the literal
// pipeline. seed derives the component's CHOOSE stream; 0 picks the first
// valuation deterministically. g may be the live graph or a graph.CompSnap
// of the component.
func EvaluateComponentFast(db *memdb.DB, g graph.View, component []ir.QueryID, byID map[ir.QueryID]*ir.Query, seed int64, mopt Options) (answers []ir.Answer, rejected []Removal, err error) {
	return EvaluateComponentFastWith(nil, db, g, component, byID, seed, mopt)
}

// EvaluateComponentFastWith is EvaluateComponentFast with the fast path's
// scratch pinned by the caller; a nil sc falls back to the package pools.
func EvaluateComponentFastWith(sc *Scratch, db *memdb.DB, g graph.View, component []ir.QueryID, byID map[ir.QueryID]*ir.Query, seed int64, mopt Options) (answers []ir.Answer, rejected []Removal, err error) {
	if !mopt.NaiveMGU {
		var ds *denseState
		var ev *evalScratch
		if sc != nil {
			ds, ev = &sc.ds, &sc.ev
		} else {
			ds = densePool.Get().(*denseState)
			ev = evalPool.Get().(*evalScratch)
		}
		_, ok := matchFastCoreInto(ds, g, component)
		if ok {
			answers, rejected, err = evaluateDense(db, ds, ev, byID, component, seed, mopt.Plans)
		}
		if sc == nil {
			densePool.Put(ds)
			evalPool.Put(ev)
		}
		if ok {
			return answers, rejected, err
		}
	}
	var rnd memdb.Rng
	if seed != 0 {
		sm := memdb.NewSplitMix(seed)
		rnd = &sm
	}
	answers, rejected, _, err = evaluateViaCombined(db, g, component, byID, rnd, mopt)
	return answers, rejected, err
}

// evaluateViaCombined is the literal pipeline: Algorithm 1 matching, then
// BuildCombined → Simplify → conjunctive evaluation → SplitAnswers. The
// simplified body compiles per call (CompilePlan + ExecPlan under
// EvalConjunctive).
func evaluateViaCombined(db *memdb.DB, g graph.View, component []ir.QueryID, byID map[ir.QueryID]*ir.Query, rnd memdb.Rng, mopt Options) (answers []ir.Answer, rejected []Removal, combined *ir.CombinedQuery, err error) {
	res := MatchComponent(g, component, mopt)
	rejected = append(rejected, res.Removed...)
	if len(res.Survivors) == 0 {
		return nil, rejected, nil, nil
	}
	cq, global, err := BuildCombined(byID, res)
	if err != nil {
		// No global unifier: reject the whole surviving set (Section 4.2).
		for _, id := range res.Survivors {
			rejected = append(rejected, Removal{Query: id, Cause: CauseGlobalMGU})
		}
		return nil, rejected, nil, nil
	}
	simplified := Simplify(cq, global)
	vals, err := db.EvalConjunctive(simplified.Body, nil, memdb.EvalOptions{Limit: 1, Rand: rnd})
	if err != nil {
		return nil, nil, nil, err
	}
	if len(vals) == 0 {
		for _, id := range res.Survivors {
			rejected = append(rejected, Removal{Query: id, Cause: CauseNoData})
		}
		return nil, rejected, cq, nil
	}
	answers, err = SplitAnswers(byID, cq.Members, global, vals[0])
	if err != nil {
		return nil, nil, nil, err
	}
	return answers, rejected, cq, nil
}
