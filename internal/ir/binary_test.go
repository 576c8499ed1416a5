package ir

import (
	"math/rand"
	"strings"
	"testing"
)

// adversarialQueries are spellings the IR text form cannot carry back:
// lowercase and digit-bearing constants, underscore variables, quotes,
// empty strings, separators and non-ASCII, plus one string shared between
// the owner, a relation, a constant and a variable.
func adversarialQueries() []*Query {
	return []*Query{
		{Choose: 1,
			Heads: []Atom{NewAtom("R_t38", Const("u132"), Const("ACA"))},
			Posts: []Atom{NewAtom("R_t38", Const("u15"), Const("ACA"))},
			Body: []Atom{
				NewAtom("F", Const("u132"), Const("u15")),
				NewAtom("U", Const("u132"), Var("_city4")),
				NewAtom("U", Const("u15"), Var("_city4")),
			}},
		{Choose: 3, Owner: "u81",
			Heads: []Atom{NewAtom("u81", Var("u81"), Const("u81"))},
			Body:  []Atom{NewAtom("F", Var("u81"), Const("paris"), Const("it's"), Const(""))}},
		{Choose: 0, Owner: "ζ∧{}",
			Heads: []Atom{NewAtom("T", Var("_u.13"), Var("_u1.3"))},
			Posts: []Atom{NewAtom("T", Var("_u1.3"), Var("_u.13")), NewAtom("Z")},
			Body:  []Atom{NewAtom("B", Var("_u.13"), Var("_u1.3"), Const("a, b) :- C(x"))}},
		{Choose: -2, Heads: []Atom{NewAtom("")}},
		{},
	}
}

// randomQuery builds a query over a small pool of hostile identifiers, so
// repeats (back-references) and kind collisions are frequent.
func randomQuery(rng *rand.Rand) *Query {
	pool := []string{"x", "_c4", "u81", "U", "Paris", "paris", "", "'", "a b", "·", "q1·x", strings.Repeat("w", 70)}
	pick := func() string { return pool[rng.Intn(len(pool))] }
	atoms := func(n int) []Atom {
		var out []Atom
		for i := 0; i < n; i++ {
			args := make([]Term, rng.Intn(4))
			for j := range args {
				args[j] = Term{Kind: TermKind(rng.Intn(2)), Value: pick()}
			}
			out = append(out, Atom{Rel: pick(), Args: args})
		}
		return out
	}
	return &Query{Owner: pick(), Choose: rng.Intn(5) - 1,
		Heads: atoms(1 + rng.Intn(2)), Posts: atoms(rng.Intn(3)), Body: atoms(rng.Intn(5))}
}

func TestBinaryRoundTrip(t *testing.T) {
	qs := adversarialQueries()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		qs = append(qs, randomQuery(rng))
	}
	for _, q := range qs {
		enc := AppendBinary([]byte("prefix"), q)[len("prefix"):]
		back, err := DecodeBinary(string(enc))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !back.Equal(q) {
			t.Fatalf("round trip changed the query:\n got %s (owner %q, choose %d)\nwant %s (owner %q, choose %d)",
				back, back.Owner, back.Choose, q, q.Owner, q.Choose)
		}
		if again := AppendBinary(nil, back); string(again) != string(enc) {
			t.Fatalf("%s: re-encoding differs", q)
		}
	}
}

// TestBinaryCompact pins that each distinct string is spelled once: the
// paired-flight query from the durable benchmark stream encodes in well
// under half its text form.
func TestBinaryCompact(t *testing.T) {
	q := adversarialQueries()[0]
	n := len(AppendBinary(nil, q))
	if n > 48 {
		t.Fatalf("encoding is %d bytes, want at most 48 (text form %d)", n, len(q.String()))
	}
}

func TestDecodeBinaryRejects(t *testing.T) {
	enc := string(AppendBinary(nil, adversarialQueries()[0]))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
		}
	}
	// The same query with its repeat as a back-reference is well formed.
	if _, err := DecodeBinary("\x02\x00\x01\x00\x00\x02F\x01\x07"); err != nil {
		t.Fatalf("hand-built encoding: %v", err)
	}
	for name, bad := range map[string]string{
		"trailing byte":        enc + "\x00",
		"overlong varint":      "\x82\x00" + enc[1:],
		"dangling ref":         enc[:1] + "\x7f" + enc[2:],
		"string spelled twice": "\x02\x00\x01\x00\x00\x02F\x01\x05F",
		"huge count":           "\x02\x00\xff\xff\xff\xff\x0f",
		"varint overflow":      "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02",
	} {
		if q, err := DecodeBinary(bad); err == nil {
			t.Errorf("%s: decoded %s", name, q)
		}
	}
}
