package workload

import (
	"fmt"
	"math/rand"

	"entangle/internal/ir"
	"entangle/internal/memdb"
)

// Database schema of the flight-booking scenario (Section 5.2), using the
// paper's abbreviations: R = Reserve (the ANSWER relation), F = Friends,
// U = User.
const (
	AnswerRel  = "R" // Reserve(UserName, Destination)
	FriendsRel = "F" // Friends(UserName1, UserName2)
	UserRel    = "U" // User(UserName, HomeTown)
)

// PopulateDB loads the social graph into a fresh database: the symmetric
// Friends relation and the User hometown relation.
func PopulateDB(db *memdb.DB, g *Graph) error {
	if err := db.CreateTable(FriendsRel, "u1", "u2"); err != nil {
		return err
	}
	if err := db.CreateTable(UserRel, "u", "city"); err != nil {
		return err
	}
	// One name per user, and per user one BulkInsert from a reused buffer
	// (memdb reads rows, it does not keep them): the load leaves no per-edge
	// garbage behind to inflate the process's peak.
	names := make([]string, g.N)
	for u := range names {
		names[u] = UserName(u)
	}
	var rows [][]string
	for u, un := range names {
		friends := g.Friends(u)
		for len(rows) < len(friends) {
			rows = append(rows, make([]string, 2))
		}
		for i, f := range friends {
			rows[i][0], rows[i][1] = un, names[f]
		}
		if err := db.BulkInsert(FriendsRel, rows[:len(friends)]); err != nil {
			return err
		}
		if err := db.Insert(UserRel, un, g.Airport(int(g.Hometown[u]))); err != nil {
			return err
		}
	}
	if err := db.CreateIndex(FriendsRel, "u1"); err != nil {
		return err
	}
	return db.CreateIndex(UserRel, "u")
}

// Gen generates experimental query workloads over a social graph. IDs are
// assigned sequentially from Next.
type Gen struct {
	G    *Graph
	Next ir.QueryID
	rng  *rand.Rand

	// DistinctRels gives each coordinating group (pair, triangle, clique)
	// its own ANSWER relation ("R_g1", "R_g2", …) instead of the shared
	// paper relation R. Coordination inside a group is unchanged — members
	// still reference each other's heads — but groups become unifiability-
	// disjoint, modelling independent applications each declaring their own
	// ANSWER namespace. This is the workload shape that lets a sharded
	// engine spread groups across shards (with one shared R every query has
	// the same routing signature and lands on one shard).
	DistinctRels bool
	group        int
}

// NewGen returns a generator with its own deterministic RNG.
func NewGen(g *Graph, seed int64) *Gen {
	return &Gen{G: g, Next: 1, rng: rand.New(rand.NewSource(seed))}
}

func (gen *Gen) id() ir.QueryID {
	id := gen.Next
	gen.Next++
	return id
}

// groupRel returns the ANSWER relation for the next coordinating group:
// the shared AnswerRel, or a fresh per-group name under DistinctRels.
func (gen *Gen) groupRel() string {
	if !gen.DistinctRels {
		return AnswerRel
	}
	gen.group++
	return fmt.Sprintf("%s_g%d", AnswerRel, gen.group)
}

func (gen *Gen) dest() string {
	return gen.G.Airport(gen.rng.Intn(len(gen.G.Airports())))
}

// TwoWayRandom builds the Figure 6 "random workload": for each friend pair
// (u, v), two queries of the paper's form
//
//	{R(x, D)} R(u, D) :- F(u, x) ∧ U(u, c) ∧ U(x, c)
//	{R(y, D)} R(v, D) :- F(v, y) ∧ U(v, c') ∧ U(y, c')
//
// The pair are friends, but nothing forces them into the same city, so the
// pair has "a realistic — not too small and not too large — chance to
// coordinate" (Section 5.3.1). D is a per-pair random destination.
func (gen *Gen) TwoWayRandom(pairs [][2]int) []*ir.Query {
	var out []*ir.Query
	for _, p := range pairs {
		d := gen.dest()
		rel := gen.groupRel()
		out = append(out, gen.partnerSeekQuery(rel, p[0], d), gen.partnerSeekQuery(rel, p[1], d))
	}
	return out
}

// partnerSeekQuery builds one "fly to dest with any friend in my city"
// query for user u, coordinating through the given ANSWER relation.
func (gen *Gen) partnerSeekQuery(rel string, u int, dest string) *ir.Query {
	un := UserName(u)
	q := &ir.Query{
		ID:     gen.id(),
		Owner:  un,
		Choose: 1,
		Heads:  []ir.Atom{ir.NewAtom(rel, ir.Const(un), ir.Const(dest))},
		Posts:  []ir.Atom{ir.NewAtom(rel, ir.Var("x"), ir.Const(dest))},
		Body: []ir.Atom{
			ir.NewAtom(FriendsRel, ir.Const(un), ir.Var("x")),
			ir.NewAtom(UserRel, ir.Const(un), ir.Var("c")),
			ir.NewAtom(UserRel, ir.Var("x"), ir.Var("c")),
		},
	}
	return q
}

// TwoWayBest builds the Figure 6 "best-case workload": the fully specified
// variant where partner names are constants, eliminating the F ⋈ U join
// needed to ground x (Section 5.3.1's second query form).
func (gen *Gen) TwoWayBest(pairs [][2]int) []*ir.Query {
	var out []*ir.Query
	for _, p := range pairs {
		d := gen.dest()
		rel := gen.groupRel()
		out = append(out,
			gen.specificQuery(rel, p[0], p[1], d),
			gen.specificQuery(rel, p[1], p[0], d))
	}
	return out
}

// specificQuery builds "u flies to dest with exactly partner", coordinating
// through the given ANSWER relation.
func (gen *Gen) specificQuery(rel string, u, partner int, dest string) *ir.Query {
	un, pn := UserName(u), UserName(partner)
	return &ir.Query{
		ID:     gen.id(),
		Owner:  un,
		Choose: 1,
		Heads:  []ir.Atom{ir.NewAtom(rel, ir.Const(un), ir.Const(dest))},
		Posts:  []ir.Atom{ir.NewAtom(rel, ir.Const(pn), ir.Const(dest))},
		Body: []ir.Atom{
			ir.NewAtom(FriendsRel, ir.Const(un), ir.Const(pn)),
			ir.NewAtom(UserRel, ir.Const(un), ir.Var("c")),
			ir.NewAtom(UserRel, ir.Const(pn), ir.Var("c")),
		},
	}
}

// ThreeWay builds the Figure 6 three-way workload: for each triangle
// (a, b, c), a 3-cycle of fully specified queries a→b→c→a (Section 5.3.2).
func (gen *Gen) ThreeWay(triangles [][3]int) []*ir.Query {
	var out []*ir.Query
	for _, tri := range triangles {
		d := gen.dest()
		rel := gen.groupRel()
		out = append(out,
			gen.specificQuery(rel, tri[0], tri[1], d),
			gen.specificQuery(rel, tri[1], tri[2], d),
			gen.specificQuery(rel, tri[2], tri[0], d))
	}
	return out
}

// Clique builds the Figure 7 workload: for each k-clique, k queries each
// carrying k-1 postconditions naming every other member (Section 5.3.3's
// "travel with all my friends" scenario).
func (gen *Gen) Clique(cliques [][]int) []*ir.Query {
	var out []*ir.Query
	for _, clique := range cliques {
		d := gen.dest()
		rel := gen.groupRel()
		for i, u := range clique {
			un := UserName(u)
			q := &ir.Query{
				ID:     gen.id(),
				Owner:  un,
				Choose: 1,
				Heads:  []ir.Atom{ir.NewAtom(rel, ir.Const(un), ir.Const(d))},
			}
			q.Body = append(q.Body, ir.NewAtom(UserRel, ir.Const(un), ir.Var("c")))
			for j, v := range clique {
				if i == j {
					continue
				}
				vn := UserName(v)
				q.Posts = append(q.Posts, ir.NewAtom(rel, ir.Const(vn), ir.Const(d)))
				q.Body = append(q.Body,
					ir.NewAtom(FriendsRel, ir.Const(un), ir.Const(vn)),
					ir.NewAtom(UserRel, ir.Const(vn), ir.Var("c")))
			}
			out = append(out, q)
		}
	}
	return out
}

// NoMatch builds the Figure 8 "no coordination, no unification" workload:
// every query's postcondition names a partner destination that no head in
// the workload uses, so the unifiability graph has no edges.
func (gen *Gen) NoMatch(n int) []*ir.Query {
	out := make([]*ir.Query, 0, n)
	for i := 0; i < n; i++ {
		u := gen.rng.Intn(gen.G.N)
		un := UserName(u)
		q := &ir.Query{
			ID:     gen.id(),
			Owner:  un,
			Choose: 1,
			// Head destinations H<i> and post destinations P<i> are drawn
			// from disjoint namespaces, so no post unifies with any head.
			Heads: []ir.Atom{ir.NewAtom(AnswerRel, ir.Const(un), ir.Const(fmt.Sprintf("H%d", i)))},
			Posts: []ir.Atom{ir.NewAtom(AnswerRel, ir.Var("x"), ir.Const(fmt.Sprintf("P%d", i)))},
			Body: []ir.Atom{
				ir.NewAtom(FriendsRel, ir.Const(un), ir.Var("x")),
			},
		}
		out = append(out, q)
	}
	return out
}

// Chains builds the Figure 8 "usual partitions" workload: queries unify
// into chains in the unifiability graph (each query's head feeds the next
// query's postcondition) but form no cycles, so no matching ever completes.
// chainLen bounds each chain, mirroring how social clustering bounds
// partition sizes in the paper's experiment.
func (gen *Gen) Chains(n, chainLen int) []*ir.Query {
	if chainLen < 2 {
		chainLen = 2
	}
	out := make([]*ir.Query, 0, n)
	chain := 0
	for len(out) < n {
		clen := chainLen
		if rem := n - len(out); clen > rem {
			clen = rem
		}
		for i := 0; i < clen; i++ {
			u := gen.rng.Intn(gen.G.N)
			un := UserName(u)
			q := &ir.Query{
				ID:     gen.id(),
				Owner:  un,
				Choose: 1,
				Heads:  []ir.Atom{ir.NewAtom(AnswerRel, ir.Const(un), ir.Const(fmt.Sprintf("C%d·%d", chain, i)))},
				// Post points at the previous link's head destination; the
				// chain head (i == 0) points at a destination nobody offers.
				Posts: []ir.Atom{ir.NewAtom(AnswerRel, ir.Var("x"), ir.Const(fmt.Sprintf("C%d·%d", chain, i-1)))},
				Body: []ir.Atom{
					ir.NewAtom(FriendsRel, ir.Const(un), ir.Var("x")),
				},
			}
			out = append(out, q)
		}
		chain++
	}
	return out
}

// BigCluster builds the Figure 8 stress-test workload: all n queries unify
// into one massive partition (a single chain over users of a big cluster).
func (gen *Gen) BigCluster(n int) []*ir.Query {
	return gen.Chains(n, n)
}

// ResidentNoCoordination builds the Figure 9 resident set: n queries that
// cannot coordinate (posts reference unmatched destinations) but whose
// heads share `groups` destinations D0..D<groups-1> — the bait for
// subsequent unsafe arrivals. groups must satisfy n/groups ≥ 2 for every
// group to hold at least two heads (the paper uses 20,000 residents over
// 1,000 groups); pass groups ≤ n/2.
func (gen *Gen) ResidentNoCoordination(n, groups int) []*ir.Query {
	if groups < 1 {
		groups = 1
	}
	out := make([]*ir.Query, 0, n)
	for i := 0; i < n; i++ {
		u := gen.rng.Intn(gen.G.N)
		un := UserName(u)
		q := &ir.Query{
			ID:     gen.id(),
			Owner:  un,
			Choose: 1,
			Heads:  []ir.Atom{ir.NewAtom(AnswerRel, ir.Const(un), ir.Const(fmt.Sprintf("D%d", i%groups)))},
			Posts:  []ir.Atom{ir.NewAtom(AnswerRel, ir.Var("x"), ir.Const(fmt.Sprintf("Z%d", i)))},
			Body: []ir.Atom{
				ir.NewAtom(FriendsRel, ir.Const(un), ir.Var("x")),
			},
		}
		out = append(out, q)
	}
	return out
}

// UnsafeBatch builds the Figure 9 arrival batches: each query's
// postcondition R(x, D<k>) unifies with the multiple resident heads
// sharing destination D<k> (k < groups, matching the resident set's
// grouping), so the safety check must reject it.
func (gen *Gen) UnsafeBatch(n, groups int) []*ir.Query {
	if groups < 1 {
		groups = 1
	}
	out := make([]*ir.Query, 0, n)
	for i := 0; i < n; i++ {
		u := gen.rng.Intn(gen.G.N)
		un := UserName(u)
		q := &ir.Query{
			ID:     gen.id(),
			Owner:  un,
			Choose: 1,
			Heads:  []ir.Atom{ir.NewAtom(AnswerRel, ir.Const(un), ir.Const(fmt.Sprintf("X%d", i)))},
			Posts:  []ir.Atom{ir.NewAtom(AnswerRel, ir.Var("x"), ir.Const(fmt.Sprintf("D%d", i%groups)))},
			Body: []ir.Atom{
				ir.NewAtom(FriendsRel, ir.Const(un), ir.Var("x")),
			},
		}
		out = append(out, q)
	}
	return out
}

// Interleave returns a deterministic random permutation of the queries.
func (gen *Gen) Interleave(queries []*ir.Query) []*ir.Query {
	out := append([]*ir.Query(nil), queries...)
	gen.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// PermuteGroups randomly permutes consecutive groups of k queries while
// keeping each group's members adjacent. This is the paper's arrival model
// for Figure 6 ("a randomly permuted set of mutually coordinating *pairs*
// of queries"): the pair order is random, but a pair's two queries arrive
// together, which is why the pending set stays small and evaluation is
// linear. len(queries) must be a multiple of k.
func (gen *Gen) PermuteGroups(queries []*ir.Query, k int) []*ir.Query {
	if k < 1 || len(queries)%k != 0 {
		return gen.Interleave(queries)
	}
	nGroups := len(queries) / k
	order := gen.rng.Perm(nGroups)
	out := make([]*ir.Query, 0, len(queries))
	for _, gi := range order {
		out = append(out, queries[gi*k:(gi+1)*k]...)
	}
	return out
}
