package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"entangle/internal/graph"
	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/memdb"
)

// smallGraph builds a small deterministic social graph for tests.
func smallGraph(t testing.TB) *Graph {
	t.Helper()
	return NewGraph(Config{N: 500, AvgDeg: 10, Seed: 1, Airports: 8})
}

// graphDigest is an FNV-1a digest of every adjacency list, in order, and
// every hometown.
func graphDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	for u := 0; u < g.N; u++ {
		put(uint32(g.Degree(u)))
		for _, v := range g.Friends(u) {
			put(uint32(v))
		}
	}
	for _, c := range g.Hometown {
		put(uint32(c))
	}
	return h.Sum64()
}

// TestGraphDigestPinned pins the generated substrate bit for bit: the
// benchmark's oracle and memdb's equivalence suites depend on the exact
// graph a seed produces. The digests were computed with the map-based edge
// set the open-addressing one replaced (which also matches at N=82168,
// seed 42: 0xdaecc6f643fdd4b4).
func TestGraphDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want uint64
	}{
		{Config{N: 3000, Seed: 42}, 0xc038a78e04abb0fb},
		{Config{N: 500, AvgDeg: 8, Seed: 7, Airports: 5}, 0xbe1e5d452261853f},
	} {
		if got := graphDigest(NewGraph(tc.cfg)); got != tc.want {
			t.Errorf("%+v: digest %#x, want %#x", tc.cfg, got, tc.want)
		}
	}
}

func TestGraphDeterminism(t *testing.T) {
	g1 := NewGraph(Config{N: 200, AvgDeg: 8, Seed: 42, Airports: 5})
	g2 := NewGraph(Config{N: 200, AvgDeg: 8, Seed: 42, Airports: 5})
	for u := 0; u < g1.N; u++ {
		if g1.Degree(u) != g2.Degree(u) {
			t.Fatalf("degree(%d) differs across runs with the same seed", u)
		}
		if g1.Hometown[u] != g2.Hometown[u] {
			t.Fatalf("hometown(%d) differs across runs with the same seed", u)
		}
	}
	g3 := NewGraph(Config{N: 200, AvgDeg: 8, Seed: 43, Airports: 5})
	same := true
	for u := 0; u < g1.N; u++ {
		if g1.Degree(u) != g3.Degree(u) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGraphBasicInvariants(t *testing.T) {
	g := smallGraph(t)
	edges := 0
	for u := 0; u < g.N; u++ {
		edges += g.Degree(u)
		for _, f := range g.Friends(u) {
			if int(f) == u {
				t.Fatalf("self loop at %d", u)
			}
			if !g.AreFriends(int(f), u) {
				t.Fatalf("friendship not symmetric: %d→%d", u, f)
			}
		}
		if g.Hometown[u] < 0 || int(g.Hometown[u]) >= len(g.Airports()) {
			t.Fatalf("hometown out of range: %d", g.Hometown[u])
		}
	}
	if edges == 0 {
		t.Fatal("graph has no edges")
	}
	avg := float64(edges) / float64(g.N)
	if avg < 2 || avg > 40 {
		t.Fatalf("average degree %f implausible", avg)
	}
}

func TestGraphClustering(t *testing.T) {
	g := smallGraph(t)
	cc := g.ClusteringCoefficient(200, 7)
	// The triangle-closure step must give materially more clustering than
	// an Erdős–Rényi graph of the same density (~avgdeg/n = 0.02).
	if cc < 0.03 {
		t.Fatalf("clustering coefficient %f too low — triangle closure broken?", cc)
	}
}

func TestHometownHomophily(t *testing.T) {
	// The assignment should give most users a good fraction of same-city
	// friends (the paper ensures "as far as possible" at least half).
	g := smallGraph(t)
	sameCity, total := 0, 0
	for u := 0; u < g.N; u++ {
		for _, f := range g.Friends(u) {
			total++
			if g.Hometown[u] == g.Hometown[f] {
				sameCity++
			}
		}
	}
	frac := float64(sameCity) / float64(total)
	if frac < 0.5 {
		t.Fatalf("same-city friend fraction %f < 0.5", frac)
	}
}

func TestAirportCodesDistinct(t *testing.T) {
	g := NewGraph(Config{N: 10, Airports: 102, Seed: 1})
	seen := map[string]bool{}
	for _, a := range g.Airports() {
		if seen[a] {
			t.Fatalf("duplicate airport code %s", a)
		}
		if len(a) != 3 {
			t.Fatalf("airport code %q not three letters", a)
		}
		seen[a] = true
	}
	if len(seen) != 102 {
		t.Fatalf("airports = %d", len(seen))
	}
}

func TestFriendPairs(t *testing.T) {
	g := smallGraph(t)
	pairs := g.FriendPairs(100, 3)
	if len(pairs) != 100 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if !g.AreFriends(p[0], p[1]) {
			t.Fatalf("pair %v are not friends", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestTriangles(t *testing.T) {
	g := smallGraph(t)
	tris := g.Triangles(30, 5)
	if len(tris) == 0 {
		t.Fatal("no triangles found")
	}
	for _, tri := range tris {
		if !g.AreFriends(tri[0], tri[1]) || !g.AreFriends(tri[1], tri[2]) || !g.AreFriends(tri[0], tri[2]) {
			t.Fatalf("%v is not a triangle", tri)
		}
	}
}

func TestCliques(t *testing.T) {
	g := smallGraph(t)
	for k := 2; k <= 4; k++ {
		cliques := g.Cliques(10, k, 9)
		if len(cliques) == 0 {
			t.Fatalf("no %d-cliques found", k)
		}
		for _, c := range cliques {
			if len(c) != k {
				t.Fatalf("clique size %d != %d", len(c), k)
			}
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if !g.AreFriends(c[i], c[j]) {
						t.Fatalf("%v is not a clique", c)
					}
				}
			}
		}
	}
}

func TestLargestComponentSample(t *testing.T) {
	g := smallGraph(t)
	got := g.LargestComponentSample(50)
	if len(got) != 50 {
		t.Fatalf("sample = %d", len(got))
	}
	seen := map[int]bool{}
	for _, u := range got {
		if seen[u] {
			t.Fatalf("duplicate user %d in sample", u)
		}
		seen[u] = true
	}
}

func TestPopulateDB(t *testing.T) {
	g := smallGraph(t)
	db := memdb.New()
	if err := PopulateDB(db, g); err != nil {
		t.Fatal(err)
	}
	if db.Table(UserRel).Len() != g.N {
		t.Fatalf("User rows = %d", db.Table(UserRel).Len())
	}
	edges := 0
	for u := 0; u < g.N; u++ {
		edges += g.Degree(u)
	}
	if db.Table(FriendsRel).Len() != edges {
		t.Fatalf("Friends rows = %d, want %d", db.Table(FriendsRel).Len(), edges)
	}
}

func TestTwoWayBestCoordinates(t *testing.T) {
	g := smallGraph(t)
	db := memdb.New()
	if err := PopulateDB(db, g); err != nil {
		t.Fatal(err)
	}
	gen := NewGen(g, 11)
	pairs := g.FriendPairs(20, 11)
	qs := gen.TwoWayBest(pairs)
	if len(qs) != 40 {
		t.Fatalf("queries = %d", len(qs))
	}
	out, err := match.Coordinate(db, qs, match.CoordinateOptions{EnforceSafety: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every matched pair that shares a hometown coordinates; count pairs
	// whose members share a city and verify they were answered (unless
	// dropped by safety enforcement due to destination collisions).
	unsafeSet := map[ir.QueryID]bool{}
	for _, id := range out.UnsafeRemoved {
		unsafeSet[id] = true
	}
	for i, p := range pairs {
		id1, id2 := qs[2*i].ID, qs[2*i+1].ID
		if unsafeSet[id1] || unsafeSet[id2] {
			continue
		}
		sameCity := g.Hometown[p[0]] == g.Hometown[p[1]]
		_, a1 := out.Answers[id1]
		_, a2 := out.Answers[id2]
		if sameCity && (!a1 || !a2) {
			t.Errorf("same-city pair %v not answered", p)
		}
		if !sameCity && (a1 || a2) {
			t.Errorf("different-city pair %v should not be answered", p)
		}
		if a1 != a2 {
			t.Errorf("pair %v half-answered", p)
		}
	}
	if len(out.Answers) == 0 {
		t.Fatal("no pair coordinated at all — hometown assignment too scattered?")
	}
}

func TestTwoWayRandomSafeInIsolation(t *testing.T) {
	// A single pair from the random workload must be safe (own heads do
	// not count) and must coordinate when the two users share a city.
	g := smallGraph(t)
	db := memdb.New()
	if err := PopulateDB(db, g); err != nil {
		t.Fatal(err)
	}
	gen := NewGen(g, 13)
	// Find a same-city friend pair.
	var pair [2]int
	found := false
	for _, p := range g.FriendPairs(200, 13) {
		if g.Hometown[p[0]] == g.Hometown[p[1]] {
			pair = p
			found = true
			break
		}
	}
	if !found {
		t.Skip("no same-city pair in sample")
	}
	qs := gen.TwoWayRandom([][2]int{pair})
	if viol := match.CheckSafety(qs); len(viol) != 0 {
		t.Fatalf("isolated pair should be safe: %v", viol)
	}
	out, err := match.Coordinate(db, qs, match.CoordinateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != 2 {
		t.Fatalf("answers = %v rejected = %v", out.Answers, out.Rejected)
	}
}

func TestThreeWayCycles(t *testing.T) {
	g := smallGraph(t)
	db := memdb.New()
	if err := PopulateDB(db, g); err != nil {
		t.Fatal(err)
	}
	gen := NewGen(g, 17)
	tris := g.Triangles(10, 17)
	qs := gen.ThreeWay(tris)
	if len(qs) != 3*len(tris) {
		t.Fatalf("queries = %d", len(qs))
	}
	out, err := match.Coordinate(db, qs, match.CoordinateOptions{EnforceSafety: true})
	if err != nil {
		t.Fatal(err)
	}
	// Answered triangles must be answered as whole triples.
	for i := range tris {
		n := 0
		for j := 0; j < 3; j++ {
			if _, ok := out.Answers[qs[3*i+j].ID]; ok {
				n++
			}
		}
		if n != 0 && n != 3 {
			t.Fatalf("triangle %d partially answered (%d of 3)", i, n)
		}
	}
}

func TestCliqueWorkloadShape(t *testing.T) {
	g := smallGraph(t)
	gen := NewGen(g, 19)
	cliques := g.Cliques(5, 3, 19)
	qs := gen.Clique(cliques)
	if len(qs) != 5*3 {
		t.Fatalf("queries = %d", len(qs))
	}
	for _, q := range qs {
		if len(q.Posts) != 2 {
			t.Fatalf("3-clique query should have 2 postconditions, got %d", len(q.Posts))
		}
		// Body: 1 own U atom + per-partner (F + U) = 1 + 2*2 = 5.
		if len(q.Body) != 5 {
			t.Fatalf("body atoms = %d", len(q.Body))
		}
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoMatchHasNoEdges(t *testing.T) {
	g := smallGraph(t)
	gen := NewGen(g, 23)
	qs := gen.NoMatch(100)
	renamed := make([]*ir.Query, len(qs))
	for i, q := range qs {
		renamed[i] = q.RenameApart()
	}
	ug, err := graph.Build(renamed)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ug.QueryIDs() {
		if len(ug.Node(id).Out) != 0 {
			t.Fatalf("no-match workload produced an edge from q%d", id)
		}
	}
}

func TestChainsShape(t *testing.T) {
	g := smallGraph(t)
	gen := NewGen(g, 29)
	qs := gen.Chains(100, 10)
	if len(qs) != 100 {
		t.Fatalf("queries = %d", len(qs))
	}
	renamed := make([]*ir.Query, len(qs))
	for i, q := range qs {
		renamed[i] = q.RenameApart()
	}
	ug, err := graph.Build(renamed)
	if err != nil {
		t.Fatal(err)
	}
	comps := ug.ConnectedComponents()
	if len(comps) != 10 {
		t.Fatalf("components = %d, want 10 chains", len(comps))
	}
	// Chains have no cycles: every SCC is a singleton.
	for _, scc := range ug.SCCs() {
		if len(scc) != 1 {
			t.Fatalf("chain workload contains a cycle: %v", scc)
		}
	}
	// And no chain ever completes a match.
	for _, comp := range comps {
		res := match.MatchComponent(ug, comp, match.Options{})
		if len(res.Survivors) != 0 {
			t.Fatalf("chain component matched: %v", res.Survivors)
		}
	}
}

func TestUnsafeBatchRejected(t *testing.T) {
	g := smallGraph(t)
	gen := NewGen(g, 31)
	resident := gen.ResidentNoCoordination(2000, 100)
	checker := match.NewSafetyChecker()
	for _, q := range resident {
		if err := checker.Admit(q.RenameApart()); err != nil {
			t.Fatalf("resident query rejected: %v", err)
		}
	}
	batch := gen.UnsafeBatch(100, 100)
	rejected := 0
	for _, q := range batch {
		if err := checker.Check(q.RenameApart()); err != nil {
			rejected++
		}
	}
	if rejected != len(batch) {
		t.Fatalf("only %d/%d unsafe arrivals rejected", rejected, len(batch))
	}
}

func TestInterleaveIsPermutation(t *testing.T) {
	g := smallGraph(t)
	gen := NewGen(g, 37)
	qs := gen.NoMatch(50)
	shuffled := gen.Interleave(qs)
	if len(shuffled) != len(qs) {
		t.Fatalf("length changed: %d", len(shuffled))
	}
	seen := map[ir.QueryID]bool{}
	for _, q := range shuffled {
		seen[q.ID] = true
	}
	for _, q := range qs {
		if !seen[q.ID] {
			t.Fatalf("query %d lost in shuffle", q.ID)
		}
	}
}

func TestDegreeDistributionHeavyTail(t *testing.T) {
	// Preferential attachment must produce a heavy-tailed degree
	// distribution: the maximum degree should far exceed the average, and
	// a small fraction of hub nodes should hold a large share of edges —
	// neither holds for an Erdős–Rényi graph of the same density.
	g := NewGraph(Config{N: 5000, AvgDeg: 10, Seed: 2})
	degs := make([]int, g.N)
	total := 0
	for u := 0; u < g.N; u++ {
		degs[u] = g.Degree(u)
		total += degs[u]
	}
	avg := float64(total) / float64(g.N)
	max := 0
	for _, d := range degs {
		if d > max {
			max = d
		}
	}
	if float64(max) < 5*avg {
		t.Fatalf("max degree %d < 5×avg %.1f — no heavy tail", max, avg)
	}
	// Top 1% of nodes should carry >5% of edge endpoints.
	sortInts(degs)
	top := degs[g.N-g.N/100:]
	topSum := 0
	for _, d := range top {
		topSum += d
	}
	if frac := float64(topSum) / float64(total); frac < 0.05 {
		t.Fatalf("top 1%% holds only %.1f%% of endpoints", frac*100)
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
