package memdb_test

import (
	"fmt"
	"testing"

	"entangle/internal/graph"
	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/memdb"
	"entangle/internal/workload"
)

// drawRecorder records every (n, draw) pair of a seeded CHOOSE stream.
type drawRecorder struct {
	sm    memdb.SplitMix
	trace [][2]int
}

func (r *drawRecorder) Intn(n int) int {
	v := r.sm.Intn(n)
	r.trace = append(r.trace, [2]int{n, v})
	return v
}

// TestCompiledLegacyEvaluatorEquivalence is the acceptance contract of the
// compiled evaluation plans on the shapes the engine really evaluates: for
// every seeded workload over the social substrate, each coordination
// component's combined query (matched, combined and simplified exactly as
// the literal pipeline does) must evaluate to the same valuation through
// the compiled plans as through the map-backed reference evaluator, with
// identical CHOOSE draw traces — the answers only coincide under a fixed
// seed if both consume the same random stream at the same points of the
// same join order. match's own parity test then ties the dense fast path to
// this literal pipeline.
func TestCompiledLegacyEvaluatorEquivalence(t *testing.T) {
	g := workload.NewGraph(workload.Config{N: 600, AvgDeg: 8, Seed: 21, Airports: 30})
	db := memdb.New()
	if err := workload.PopulateDB(db, g); err != nil {
		t.Fatal(err)
	}

	gen := func(seed int64, distinct bool) *workload.Gen {
		gen := workload.NewGen(g, seed)
		gen.DistinctRels = distinct
		return gen
	}
	workloads := []struct {
		name       string
		qs         []*ir.Query
		mustAnswer bool // built to coordinate: some valuation must compare
	}{
		{"two-way best, shared R", func() []*ir.Query {
			gen := gen(31, false)
			return gen.Interleave(gen.TwoWayBest(g.FriendPairs(60, 31)))
		}(), true},
		{"two-way best, distinct rels", func() []*ir.Query {
			gen := gen(33, true)
			return gen.Interleave(gen.TwoWayBest(g.FriendPairs(60, 33)))
		}(), true},
		{"two-way random, shared R", func() []*ir.Query {
			gen := gen(35, false)
			return gen.PermuteGroups(gen.TwoWayRandom(g.FriendPairs(40, 35)), 2)
		}(), false},
		{"three-way cycles, distinct rels", func() []*ir.Query {
			gen := gen(37, true)
			return gen.Interleave(gen.ThreeWay(g.Triangles(20, 37)))
		}(), false},
		{"cliques k=4, distinct rels", gen(39, true).Clique(g.Cliques(8, 4, 39)), true},
		{"no-match loners", gen(41, false).NoMatch(80), false},
		{"chains", gen(43, false).Chains(60, 8), false},
		{"unsafe batch over residents", func() []*ir.Query {
			gen := gen(45, false)
			return append(gen.ResidentNoCoordination(60, 12), gen.UnsafeBatch(20, 12)...)
		}(), false},
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			byID := make(map[ir.QueryID]*ir.Query, len(w.qs))
			renamed := make([]*ir.Query, len(w.qs))
			for i, q := range w.qs {
				renamed[i] = q.RenameApart()
				byID[q.ID] = renamed[i]
			}
			ug, err := graph.Build(renamed)
			if err != nil {
				t.Fatal(err)
			}
			answered := 0
			for ci, comp := range ug.ConnectedComponents() {
				res := match.MatchComponent(ug, comp, match.Options{})
				if len(res.Survivors) == 0 {
					continue
				}
				cq, global, err := match.BuildCombined(byID, res)
				if err != nil {
					continue // no global unifier: nothing reaches the database
				}
				body := match.Simplify(cq, global).Body
				seed := int64(12345 + ci)
				rc := &drawRecorder{sm: memdb.NewSplitMix(seed)}
				rl := &drawRecorder{sm: memdb.NewSplitMix(seed)}
				got, errC := db.EvalConjunctive(body, nil, memdb.EvalOptions{Limit: 1, Rand: rc})
				want, errL := db.EvalConjunctiveLegacy(body, nil, memdb.EvalOptions{Limit: 1, Rand: rl})
				if errC != nil || errL != nil {
					t.Fatalf("component %d: compiled error %v, reference error %v", ci, errC, errL)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("component %d: compiled %v, reference %v\nbody %s", ci, got, want, ir.FormatAtoms(body))
				}
				if fmt.Sprint(rc.trace) != fmt.Sprint(rl.trace) {
					t.Fatalf("component %d: draw traces diverge: compiled %v, reference %v", ci, rc.trace, rl.trace)
				}
				answered += len(got)
			}
			if w.mustAnswer && answered == 0 {
				t.Fatal("no component produced a valuation; the comparison is vacuous")
			}
		})
	}
}
