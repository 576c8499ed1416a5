// Package workload generates the experimental workloads of Section 5 of the
// paper: a social-network substrate standing in for the Slashdot0902 graph,
// hometown assignment over 102 airports, and query generators for every
// figure of the evaluation (two-way pairs, three-way cycles, k-postcondition
// cliques, no-unification sets, long chains, massive clusters, and unsafe
// batches for the safety-check stress test).
//
// Substitution note (see DESIGN.md): the paper loads the real Slashdot
// social graph (82,168 users). That dataset is not available offline, so
// Graph generates a preferential-attachment graph with the same node count,
// a heavy-tailed degree distribution and high clustering — the structural
// properties the experiments actually depend on (friend pairs, triangles,
// k-cliques, bounded cluster sizes). Generation is deterministic per seed.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// SlashdotUsers is the node count of the paper's social graph.
const SlashdotUsers = 82168

// NumAirports is the paper's destination count.
const NumAirports = 102

// Graph is an undirected social graph over users 0..N-1 with hometowns.
type Graph struct {
	N        int
	adj      [][]int32 // sorted adjacency lists
	Hometown []int16   // airport index per user
	airports []string
}

// Airports returns the airport codes used for hometowns and destinations.
func (g *Graph) Airports() []string { return g.airports }

// Airport returns the code of airport i.
func (g *Graph) Airport(i int) string { return g.airports[i] }

// UserName returns the canonical name of user u ("u<id>").
func UserName(u int) string { return fmt.Sprintf("u%d", u) }

// Degree returns the number of friends of user u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Friends returns user u's sorted friend list. The slice is shared; do not
// modify.
func (g *Graph) Friends(u int) []int32 { return g.adj[u] }

// AreFriends reports whether u and v are adjacent.
func (g *Graph) AreFriends(u, v int) bool {
	list := g.adj[u]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= int32(v) })
	return i < len(list) && list[i] == int32(v)
}

// Config controls graph generation.
type Config struct {
	N        int   // number of users; defaults to SlashdotUsers
	AvgDeg   int   // target average degree (edges per new node); default 12
	Seed     int64 // RNG seed; the same seed reproduces the same graph
	Airports int   // number of airports; defaults to NumAirports
	// PlantedCliques fully connects this many random groups of
	// PlantedCliqueSize users, modelling the dense friend groups (families,
	// clubs) real social networks contain; the Figure 7 workload needs
	// k-cliques up to size 6. Defaults to N/400 cliques of size 8.
	// Set to -1 to disable planting.
	PlantedCliques    int
	PlantedCliqueSize int
}

// NewGraph generates the social substrate: a preferential-attachment graph
// with triangle closure (each new node attaches to m targets, then closes a
// random triangle among them with probability ½ — yielding the clustering
// the Figure 8 experiment depends on), followed by hometown assignment that
// places each user with the majority of its already-assigned friends, which
// approximates the paper's "at least half his or her friends living in the
// same city" property.
func NewGraph(cfg Config) *Graph {
	if cfg.N <= 0 {
		cfg.N = SlashdotUsers
	}
	if cfg.AvgDeg <= 0 {
		cfg.AvgDeg = 12
	}
	if cfg.Airports <= 0 {
		cfg.Airports = NumAirports
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := cfg.AvgDeg / 2
	if m < 1 {
		m = 1
	}
	g := &Graph{N: cfg.N}
	edges := newEdgeSet(cfg.N * (m + 1))
	adjList := make([][]int32, cfg.N) // append-order lists keep generation deterministic
	// Repeated-node list for preferential attachment: a node appears once
	// per incident edge endpoint, so uniform sampling is degree-biased.
	targets := make([]int32, 0, cfg.N*m*2)
	addEdge := func(a, b int32) bool {
		if a == b || !edges.add(edgeKey(a, b)) {
			return false
		}
		adjList[a] = append(adjList[a], b)
		adjList[b] = append(adjList[b], a)
		targets = append(targets, a, b)
		return true
	}
	// Seed clique of m+1 nodes.
	seedN := m + 1
	if seedN > cfg.N {
		seedN = cfg.N
	}
	for a := 0; a < seedN; a++ {
		for b := a + 1; b < seedN; b++ {
			addEdge(int32(a), int32(b))
		}
	}
	for v := seedN; v < cfg.N; v++ {
		var attached []int32
		for len(attached) < m && len(targets) > 0 {
			t := targets[rng.Intn(len(targets))]
			if addEdge(int32(v), t) {
				attached = append(attached, t)
			}
		}
		// Triangle closure: also befriend a friend of an attachment target.
		if len(attached) > 0 && rng.Intn(2) == 0 {
			t := attached[rng.Intn(len(attached))]
			fs := adjList[t]
			if len(fs) > 0 {
				addEdge(int32(v), fs[rng.Intn(len(fs))])
			}
		}
	}
	// Plant dense cliques so the graph contains the k-cliques (up to k=6)
	// the postcondition-scaling experiment requires.
	planted := cfg.PlantedCliques
	if planted == 0 {
		planted = cfg.N / 400
	}
	size := cfg.PlantedCliqueSize
	if size <= 0 {
		size = 8
	}
	if size > cfg.N {
		size = cfg.N
	}
	if planted > 0 {
		for c := 0; c < planted; c++ {
			members := make([]int32, size)
			for i := range members {
				members[i] = int32(rng.Intn(cfg.N))
			}
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					addEdge(members[i], members[j])
				}
			}
		}
	}

	g.adj = adjList
	for _, list := range g.adj {
		slices.Sort(list)
	}

	// Airports.
	g.airports = make([]string, cfg.Airports)
	for i := range g.airports {
		g.airports[i] = airportCode(i)
	}

	// Hometowns: majority of already-assigned friends, else random.
	g.Hometown = make([]int16, cfg.N)
	for i := range g.Hometown {
		g.Hometown[i] = -1
	}
	order := rng.Perm(cfg.N)
	counts := make([]int, cfg.Airports)
	for _, u := range order {
		for i := range counts {
			counts[i] = 0
		}
		bestCity, bestCount := -1, 0
		for _, f := range g.adj[u] {
			if c := g.Hometown[f]; c >= 0 {
				counts[c]++
				if counts[c] > bestCount {
					bestCity, bestCount = int(c), counts[c]
				}
			}
		}
		if bestCity >= 0 {
			g.Hometown[u] = int16(bestCity)
		} else {
			g.Hometown[u] = int16(rng.Intn(cfg.Airports))
		}
	}
	return g
}

// edgeSet is the set of undirected edges NewGraph has added: open
// addressing with linear probing over edgeKey values, held in one []uint64
// the collector never scans. A key is never 0 (self-loops are not edges),
// so 0 marks an empty slot.
type edgeSet struct {
	slots []uint64 // length a power of two, at most half full
	shift uint     // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
	n     int
}

// newEdgeSet returns a set sized for about n edges without growing.
func newEdgeSet(n int) *edgeSet {
	bits := uint(4)
	for 1<<bits < 2*n {
		bits++
	}
	return &edgeSet{slots: make([]uint64, 1<<bits), shift: 64 - bits}
}

// edgeKey identifies the undirected edge {a, b}, a ≠ b.
func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// slot returns the slot holding k, or the empty slot where k belongs.
func (s *edgeSet) slot(k uint64) int {
	mask := len(s.slots) - 1
	i := int((k * 0x9E3779B97F4A7C15) >> s.shift)
	for s.slots[i] != 0 && s.slots[i] != k {
		i = (i + 1) & mask
	}
	return i
}

// add inserts k and reports whether it was absent.
func (s *edgeSet) add(k uint64) bool {
	i := s.slot(k)
	if s.slots[i] == k {
		return false
	}
	s.slots[i] = k
	s.n++
	if 2*s.n > len(s.slots) {
		old := s.slots
		s.slots, s.shift = make([]uint64, 2*len(old)), s.shift-1
		for _, k := range old {
			if k != 0 {
				s.slots[s.slot(k)] = k
			}
		}
	}
	return true
}

// airportCode produces distinct three-letter codes: AAA, AAB, …
func airportCode(i int) string {
	return string([]byte{
		'A' + byte(i/676%26),
		'A' + byte(i/26%26),
		'A' + byte(i%26),
	})
}

// FriendPairs returns up to n distinct ordered friend pairs (u, v), sampled
// deterministically from the given seed. Pairs are distinct as pairs; a
// user may appear in several pairs (as in the paper's workloads, where each
// pair coordinates through its own ANSWER tuples).
func (g *Graph) FriendPairs(n int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool, n)
	out := make([][2]int, 0, n)
	attempts := 0
	for len(out) < n && attempts < n*50 {
		attempts++
		u := rng.Intn(g.N)
		if len(g.adj[u]) == 0 {
			continue
		}
		v := int(g.adj[u][rng.Intn(len(g.adj[u]))])
		p := [2]int{u, v}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// Triangles returns up to n triangles (u, v, w) with all three edges
// present, sampled deterministically.
func (g *Graph) Triangles(n int, seed int64) [][3]int {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[3]int]bool, n)
	out := make([][3]int, 0, n)
	attempts := 0
	for len(out) < n && attempts < n*200 {
		attempts++
		u := rng.Intn(g.N)
		if len(g.adj[u]) < 2 {
			continue
		}
		v := int(g.adj[u][rng.Intn(len(g.adj[u]))])
		w := int(g.adj[u][rng.Intn(len(g.adj[u]))])
		if v == w || !g.AreFriends(v, w) {
			continue
		}
		tri := [3]int{u, v, w}
		sort.Ints(tri[:])
		if seen[tri] {
			continue
		}
		seen[tri] = true
		out = append(out, tri)
	}
	return out
}

// Cliques returns up to n cliques of size k, grown greedily from random
// edges. Used by the Figure 7 workload (coordination with k-1
// postconditions needs k-cliques).
func (g *Graph) Cliques(n, k int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	var out [][]int
	seen := make(map[string]bool)
	attempts := 0
	for len(out) < n && attempts < n*500 {
		attempts++
		u := rng.Intn(g.N)
		if len(g.adj[u]) < k-1 {
			continue
		}
		clique := []int{u}
		// Candidates: neighbours of u, tried in random order.
		cand := append([]int32(nil), g.adj[u]...)
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		for _, c := range cand {
			if len(clique) == k {
				break
			}
			ok := true
			for _, m := range clique {
				if !g.AreFriends(int(c), m) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, int(c))
			}
		}
		if len(clique) != k {
			continue
		}
		sort.Ints(clique)
		key := fmt.Sprint(clique)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, clique)
	}
	return out
}

// LargestComponentSample finds a user inside a large, well-connected region
// by picking the highest-degree node; BFS from it yields the "big cluster"
// used in the Figure 8 stress test.
func (g *Graph) LargestComponentSample(size int) []int {
	best := 0
	for u := 1; u < g.N; u++ {
		if len(g.adj[u]) > len(g.adj[best]) {
			best = u
		}
	}
	seen := map[int]bool{best: true}
	queue := []int{best}
	out := []int{best}
	for len(queue) > 0 && len(out) < size {
		u := queue[0]
		queue = queue[1:]
		for _, f := range g.adj[u] {
			if !seen[int(f)] {
				seen[int(f)] = true
				out = append(out, int(f))
				queue = append(queue, int(f))
				if len(out) >= size {
					break
				}
			}
		}
	}
	return out
}

// ClusteringCoefficient estimates the average local clustering coefficient
// over a sample of nodes — reported by the bench harness so the synthetic
// graph can be compared with the real Slashdot graph's clustering (~0.06).
func (g *Graph) ClusteringCoefficient(sample int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	if sample <= 0 || sample > g.N {
		sample = g.N
	}
	total, counted := 0.0, 0
	for i := 0; i < sample; i++ {
		u := rng.Intn(g.N)
		d := len(g.adj[u])
		if d < 2 {
			continue
		}
		links := 0
		for a := 0; a < d; a++ {
			for b := a + 1; b < d; b++ {
				if g.AreFriends(int(g.adj[u][a]), int(g.adj[u][b])) {
					links++
				}
			}
		}
		total += 2.0 * float64(links) / float64(d*(d-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
