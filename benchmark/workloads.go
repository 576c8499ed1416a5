package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"entangle/internal/ir"
	"entangle/internal/workload"
)

// dataSeed fixes the social substrate; the benchmark's -seed only shapes the
// query stream, so every run queries the same database.
const dataSeed = 42

const (
	tenants   = 64
	batchSize = 64
	// epilogueGroups is how many pairs durable_pairs opens before the crash.
	epilogueGroups = 2000
)

// spec is one named workload: the stream it sends, how fast, and how d3cd is
// started for it. Rates are constants, never calibrated per run; README.md
// records the sizing measurement behind them.
type spec struct {
	name string
	// rate is the open-loop request rate: queries per second, or batches per
	// second when batch > 1.
	rate  float64
	batch int    // queries per request line; 1 sends single sql/ir ops
	op    string // "sql" or "ir"
	// satQPS bounds how many queries the saturation phase may consume per
	// second; it only sizes the pre-rendered stream.
	satQPS float64
	stale  time.Duration // d3cd -stale; 0 keeps the default
	// durable runs d3cd with a data directory, checkpoints once per window
	// and ends with the kill-and-recover epilogue.
	durable bool
	shape   func(b *builder) []member
}

var specs = []spec{
	{
		name: "pairs_point",
		rate: 5000, batch: 1, op: "sql", satQPS: 40000,
		shape: (*builder).tenantPair,
	},
	{
		name: "cliques_batch",
		rate: 100, batch: batchSize, op: "sql", satQPS: 32000,
		shape: (*builder).tenantMix,
	},
	{
		name: "backlog_churn",
		rate: 8000, batch: 1, op: "ir", satQPS: 45000, stale: 4 * time.Second,
		shape: (*builder).churn,
	},
	{
		name: "durable_pairs",
		rate: 4000, batch: 1, op: "sql", satQPS: 30000, durable: true,
		shape: (*builder).tenantPair,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Outcome codes of the oracle, in the server's status spelling.
const (
	wantAnswered = "answered"
	wantRejected = "rejected"
	wantStale    = "stale"
)

// member is one query of a coordinating group before it is placed.
type member struct {
	text  string // SQL or IR
	want  string
	tuple string // the answer tuple when want is answered
}

// qinfo is what the run needs to know about one query of the stream.
type qinfo struct {
	frag []byte // `"sql":"…"` or `"ir":"…"`, the body of a request object
	// first is the stream index of the group's first member: a group counts
	// as opened once that member was sent. closer is the index of its last
	// member, whose due time anchors coordination latency; -1 when the
	// group never closes.
	first, closer int32
	conn          int32
	want, tuple   string
}

// send is one request line and the queries it carries: stream indexes
// [first, first+n), or list when they are not contiguous. The line itself is
// assembled from the queries' pre-rendered fragments as it is written.
type send struct {
	first, n int32
	conn     int32
	list     []int32
}

func (s *send) query(i int) int32 {
	if s.list != nil {
		return s.list[i]
	}
	return s.first + int32(i)
}

// stream is everything a run sends, generated from the workload seed alone.
type stream struct {
	spec    spec
	queries []qinfo
	sends   []send // timed phases walk these in order
	// The crash epilogue of a durable workload: openers are sent and acked
	// before the kill, partners after recovery. Both index into queries.
	openers, partners []send
}

// builder turns the social graph into coordinating groups. All groups that
// can be pending together are unifiability-disjoint, so every outcome is
// independent of arrival order and the oracle can be computed from the graph:
// a fully specified group is answered iff its members are friends living in
// one city, and a never-closing chain link goes stale.
type builder struct {
	g       *workload.Graph
	rng     *rand.Rand
	pairs   [][2]int
	tris    [][3]int
	cliques [][]int
	// keys cycles through every (tenant relation, destination) once per
	// tenants*airports groups; groups in flight at the same time therefore
	// never share an ANSWER relation and destination, while the key space —
	// and with it the server's atom indexes — stays finite.
	keys   []int32
	groups int
}

func newBuilder(g *workload.Graph, seed int64) (*builder, error) {
	b := &builder{
		g:   g,
		rng: rand.New(rand.NewSource(seed)),
		// Pools to draw groups from, sized to what a graph of g.N users can
		// offer without the samplers exhausting their attempts.
		pairs:   g.FriendPairs(min(50000, 10*g.N), seed),
		tris:    g.Triangles(min(10000, g.N), seed),
		cliques: g.Cliques(min(1000, g.N/10), 4, seed),
	}
	if len(b.pairs) == 0 || len(b.tris) == 0 || len(b.cliques) == 0 {
		return nil, fmt.Errorf("social graph of %d users has no pairs, triangles or 4-cliques to draw from", g.N)
	}
	b.keys = make([]int32, tenants*len(g.Airports()))
	for i := range b.keys {
		b.keys[i] = int32(i)
	}
	b.rng.Shuffle(len(b.keys), func(i, j int) { b.keys[i], b.keys[j] = b.keys[j], b.keys[i] })
	return b, nil
}

// nextKey returns the ANSWER relation and destination of the next group.
func (b *builder) nextKey() (rel, dest string) {
	k := int(b.keys[b.groups%len(b.keys)])
	b.groups++
	na := len(b.g.Airports())
	return fmt.Sprintf("R_t%d", k/na), b.g.Airport(k % na)
}

func user(u int) ir.Term { return ir.Const(workload.UserName(u)) }

func (b *builder) sameCity(us ...int) bool {
	for i, u := range us {
		for _, v := range us[i+1:] {
			if !b.g.AreFriends(u, v) || b.g.Hometown[u] != b.g.Hometown[v] {
				return false
			}
		}
	}
	return true
}

func outcome(ok bool) string {
	if ok {
		return wantAnswered
	}
	return wantRejected
}

// specific is "u flies to dest with exactly partner p" (workload.TwoWayBest):
// every lookup is a point lookup.
func specific(rel string, u, p int, dest string) *ir.Query {
	return &ir.Query{Choose: 1,
		Heads: []ir.Atom{ir.NewAtom(rel, user(u), ir.Const(dest))},
		Posts: []ir.Atom{ir.NewAtom(rel, user(p), ir.Const(dest))},
		Body: []ir.Atom{
			ir.NewAtom("F", user(u), user(p)),
			ir.NewAtom("U", user(u), ir.Var("c")),
			ir.NewAtom("U", user(p), ir.Var("c")),
		}}
}

// seek is "u flies to dest with any friend in u's city"
// (workload.TwoWayRandom): the partner is a variable grounded by an F⋈U⋈U join.
func seek(rel string, u int, dest string) *ir.Query {
	return &ir.Query{Choose: 1,
		Heads: []ir.Atom{ir.NewAtom(rel, user(u), ir.Const(dest))},
		Posts: []ir.Atom{ir.NewAtom(rel, ir.Var("x"), ir.Const(dest))},
		Body: []ir.Atom{
			ir.NewAtom("F", user(u), ir.Var("x")),
			ir.NewAtom("U", user(u), ir.Var("c")),
			ir.NewAtom("U", ir.Var("x"), ir.Var("c")),
		}}
}

// cliqueMember is member i of "travel with all my friends" (workload.Clique):
// one postcondition per other member. The body lists its U atoms before its F
// atoms, unlike workload.Clique, because eqsql names a subquery's fresh
// variables "_<column><counter>" and with columns u and u1 the 13th variable
// of the interleaved order (_u13) collides with the 3rd (_u1 3), which makes
// the translator unify two different users and reject the query.
func cliqueMember(rel string, us []int, i int, dest string) *ir.Query {
	q := &ir.Query{Choose: 1,
		Heads: []ir.Atom{ir.NewAtom(rel, user(us[i]), ir.Const(dest))},
		Body:  []ir.Atom{ir.NewAtom("U", user(us[i]), ir.Var("c"))},
	}
	var friends []ir.Atom
	for j, v := range us {
		if j == i {
			continue
		}
		q.Posts = append(q.Posts, ir.NewAtom(rel, user(v), ir.Const(dest)))
		q.Body = append(q.Body, ir.NewAtom("U", user(v), ir.Var("c")))
		friends = append(friends, ir.NewAtom("F", user(us[i]), user(v)))
	}
	q.Body = append(q.Body, friends...)
	return q
}

// chainLink is one link of a chain that never closes (workload.Chains): its
// postcondition names the previous link's destination, and the first link's
// names one that nobody offers.
func chainLink(u int, dest, prev string) *ir.Query {
	return &ir.Query{Choose: 1,
		Heads: []ir.Atom{ir.NewAtom(workload.AnswerRel, user(u), ir.Const(dest))},
		Posts: []ir.Atom{ir.NewAtom(workload.AnswerRel, ir.Var("x"), ir.Const(prev))},
		Body:  []ir.Atom{ir.NewAtom("F", user(u), ir.Var("x"))},
	}
}

func (b *builder) render(op string, q *ir.Query) string {
	if op == "ir" {
		return renderIR(q)
	}
	s, err := renderSQL(q)
	if err != nil {
		panic(err) // a shape this file builds does not fit its own renderer
	}
	return s
}

func (b *builder) group(op string, ok bool, qs ...*ir.Query) []member {
	ms := make([]member, len(qs))
	for i, q := range qs {
		ms[i] = member{text: b.render(op, q), want: outcome(ok)}
		if ok {
			ms[i].tuple = q.Heads[0].String()
		}
	}
	return ms
}

// tenantPair is one fully specified two-way pair in a tenant relation.
func (b *builder) tenantPair() []member {
	p := b.pairs[b.rng.Intn(len(b.pairs))]
	rel, dest := b.nextKey()
	return b.group("sql", b.sameCity(p[0], p[1]),
		specific(rel, p[0], p[1], dest), specific(rel, p[1], p[0], dest))
}

// tenantMix is 50% partner-seeking pairs, 25% triangles, 25% 4-cliques.
func (b *builder) tenantMix() []member {
	rel, dest := b.nextKey()
	switch r := b.rng.Intn(4); {
	case r < 2:
		p := b.pairs[b.rng.Intn(len(b.pairs))]
		return b.group("sql", b.sameCity(p[0], p[1]), seek(rel, p[0], dest), seek(rel, p[1], dest))
	case r == 2:
		t := b.tris[b.rng.Intn(len(b.tris))]
		return b.group("sql", b.sameCity(t[0], t[1], t[2]),
			specific(rel, t[0], t[1], dest), specific(rel, t[1], t[2], dest), specific(rel, t[2], t[0], dest))
	default:
		c := b.cliques[b.rng.Intn(len(b.cliques))]
		qs := make([]*ir.Query, len(c))
		for i := range c {
			qs[i] = cliqueMember(rel, c, i, dest)
		}
		return b.group("sql", b.sameCity(c...), qs...)
	}
}

// chainLen bounds a never-closing chain, as social clustering bounds the
// paper's partitions.
const chainLen = 4

// churn is 70% never-closing chain arrivals and 30% partner-seeking pairs by
// query count, all in the one shared relation R. Chain destinations (C…) and
// pair destinations (P…) are disjoint and unique per group, so a chain never
// closes a pair and no two groups unify.
func (b *builder) churn() []member {
	n := b.groups
	b.groups++
	// A chain group carries chainLen queries and a pair 2, so chains are
	// drawn with probability p where chainLen*p / (chainLen*p + 2(1-p)) = 0.7.
	const pChain = 1.4 / (0.3*chainLen + 1.4)
	if b.rng.Float64() < pChain {
		ms := make([]member, chainLen)
		for i := range ms {
			q := chainLink(b.rng.Intn(b.g.N), fmt.Sprintf("C%d.%d", n, i), fmt.Sprintf("C%d.%d", n, i-1))
			ms[i] = member{text: renderIR(q), want: wantStale}
		}
		return ms
	}
	p := b.pairs[b.rng.Intn(len(b.pairs))]
	dest := fmt.Sprintf("P%d", n)
	return b.group("ir", b.sameCity(p[0], p[1]),
		seek(workload.AnswerRel, p[0], dest), seek(workload.AnswerRel, p[1], dest))
}

// maxGap is the furthest a group's next member lands behind the previous
// one, in stream positions (or in batches, for a batched stream).
const maxGap = 8

// buildStream generates the stream of sp for nconn connections: enough
// requests for the timed phases (nTimed of them) plus the members that
// complete every group those requests open.
func buildStream(sp spec, g *workload.Graph, seed int64, nconn, nTimed int) (*stream, error) {
	b, err := newBuilder(g, seed)
	if err != nil {
		return nil, err
	}
	st := &stream{spec: sp}

	// slots[i] lists the queries of request i; a query is (group, member).
	type ref struct{ group, member int32 }
	capPer := sp.batch
	var slots [][]ref
	var groups [][]member
	open := 0 // first request with room
	place := func(at int, r ref) int {
		for ; ; at++ {
			for at >= len(slots) {
				slots = append(slots, nil)
			}
			if len(slots[at]) < capPer {
				slots[at] = append(slots[at], r)
				return at
			}
		}
	}
	for open < nTimed {
		ms := sp.shape(b)
		gi := int32(len(groups))
		groups = append(groups, ms)
		at := open
		for mi := range ms {
			if mi > 0 {
				if sp.batch > 1 {
					at++ // the next member goes into the next batch
				} else {
					at += 1 + b.rng.Intn(maxGap)
				}
			}
			at = place(at, ref{gi, int32(mi)})
		}
		for open < len(slots) && len(slots[open]) == capPer {
			open++
		}
	}

	// Flatten in request order. Member i of group g goes on connection
	// (g+i) mod nconn when sent alone, so partners are different users on
	// different connections and no connection carries only closers; a batch
	// goes on connection (request mod nconn), and since consecutive members
	// sit in consecutive batches they too arrive on different connections.
	idx := make([][]int32, len(groups))
	for gi, ms := range groups {
		idx[gi] = make([]int32, len(ms))
	}
	for si, slot := range slots {
		for _, r := range slot {
			qi := int32(len(st.queries))
			idx[r.group][r.member] = qi
			m := groups[r.group][r.member]
			conn := int32(si % nconn)
			if sp.batch == 1 {
				conn = (r.group + r.member) % int32(nconn)
			}
			st.queries = append(st.queries, qinfo{frag: fragment(sp.op, m.text), conn: conn, want: m.want, tuple: m.tuple})
		}
	}
	for _, qis := range idx {
		closer := qis[len(qis)-1]
		if st.queries[closer].want == wantStale {
			closer = -1
		}
		for _, qi := range qis {
			st.queries[qi].first, st.queries[qi].closer = qis[0], closer
		}
	}
	qi := int32(0)
	for si := 0; si < nTimed; si++ {
		n := int32(len(slots[si]))
		st.sends = append(st.sends, send{first: qi, n: n, conn: st.queries[qi].conn})
		qi += n
	}

	if sp.durable {
		for i := 0; i < min(epilogueGroups, g.N/4); i++ {
			ms := b.tenantPair()
			for mi, m := range ms {
				qi := int32(len(st.queries))
				st.queries = append(st.queries, qinfo{
					frag: fragment(sp.op, m.text), conn: int32((i + mi) % nconn),
					first: qi - int32(mi), closer: qi - int32(mi) + 1, want: m.want, tuple: m.tuple,
				})
				s := send{first: qi, n: 1, conn: int32((i + mi) % nconn)}
				if mi == 0 {
					st.openers = append(st.openers, s)
				} else {
					st.partners = append(st.partners, s)
				}
			}
		}
	}
	return st, nil
}

// fragment is the body of the JSON object that carries one query.
func fragment(op, text string) []byte {
	s, err := json.Marshal(text)
	if err != nil {
		panic(err) // a string always marshals
	}
	return append([]byte(`"`+op+`":`), s...)
}

// appendRequest appends the request line of s to buf.
func (st *stream) appendRequest(buf []byte, s *send) []byte {
	if st.spec.batch == 1 {
		buf = append(buf, `{"op":"`+st.spec.op+`",`...)
		buf = append(buf, st.queries[s.first].frag...)
		return append(buf, "}\n"...)
	}
	buf = append(buf, `{"op":"submit_batch","queries":[`...)
	for i := 0; i < int(s.n); i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		buf = append(buf, st.queries[s.query(i)].frag...)
		buf = append(buf, '}')
	}
	return append(buf, "]}\n"...)
}
