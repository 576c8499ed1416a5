package eqsql

import (
	"errors"
	"strings"
	"testing"

	"entangle/internal/ir"
)

// FuzzParseSQL throws arbitrary bytes at the entangled-SQL front end —
// lexer, parser and translator — over a small fixed schema. The contract
// under fuzzing: never panic; every failure is either a *ir.ParseError
// (errors.As) with a byte offset inside the input, or an offset-free
// translation error; successful translations yield queries that Validate
// accepts.
func FuzzParseSQL(f *testing.F) {
	schema := MapSchema{
		"Flights": {"fno", "dest"},
		"Friends": {"a", "b"},
		"R":       {"who", "fno"},
	}
	for _, seed := range []string{
		`SELECT 'Kramer', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('Jerry', fno) IN ANSWER R CHOOSE 1`,
		`SELECT 'Jerry', fno INTO ANSWER R WHERE ('Kramer', fno) IN ANSWER R CHOOSE 1`,
		`SELECT a, b FROM Friends`,
		`SELECT x INTO ANSWER R CHOOSE 2`,
		`SELECT`,
		`SELECT 'a' INTO ANSWER`,
		`sele ct ' unterminated`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Parse(0, src, schema, Options{AllowExtensions: true, AnswerSchemas: map[string][]string{"R": {"who", "fno"}}})
		if err != nil {
			var pe *ir.ParseError
			if errors.As(err, &pe) {
				if pe.Offset < 0 || pe.Offset > len(src) {
					t.Fatalf("ParseError offset %d outside input of %d bytes: %q", pe.Offset, len(src), src)
				}
			}
			return
		}
		if tr.Query == nil {
			t.Fatalf("Parse accepted %q but returned no query", src)
		}
		if err := tr.Query.Validate(); err != nil {
			t.Fatalf("Parse accepted %q but Validate rejects the translation: %v", src, err)
		}
	})
}

// The socket benchmark's three SQL statement forms (pair with a named
// partner, pair with any friend, clique member), over its substrate schema.
const (
	pairShapeSQL   = `SELECT 'u81', 'AAB' INTO ANSWER R_t5 WHERE ('u7', 'AAB') IN ANSWER R_t5 AND c IN (SELECT T1.city FROM F T0, U T1, U T2 WHERE T0.u1 = 'u81' AND T0.u2 = 'u7' AND T1.u = 'u81' AND T2.u = 'u7' AND T2.city = T1.city) CHOOSE 1`
	seekShapeSQL   = `SELECT 'u81', 'AAB' INTO ANSWER R_t5 WHERE (x, 'AAB') IN ANSWER R_t5 AND c IN (SELECT T1.city FROM F T0, U T1, U T2 WHERE T0.u1 = 'u81' AND T0.u2 = x AND T1.u = 'u81' AND T2.u = T0.u2 AND T2.city = T1.city) CHOOSE 1`
	cliqueShapeSQL = `SELECT 'u3', 'ADX' INTO ANSWER R_t63 WHERE ('u81', 'ADX') IN ANSWER R_t63 AND ('u500', 'ADX') IN ANSWER R_t63 AND c IN (SELECT T0.city FROM U T0, U T1, U T2, F T3, F T4 WHERE T0.u = 'u3' AND T1.u = 'u81' AND T1.city = T0.city AND T2.u = 'u500' AND T2.city = T0.city AND T3.u1 = 'u3' AND T3.u2 = 'u81' AND T4.u1 = 'u3' AND T4.u2 = 'u500') CHOOSE 1`
)

var shapeSchema = MapSchema{
	"F":       {"u1", "u2"},
	"U":       {"u", "city"},
	"Flights": {"fno", "dest"},
}

// FuzzParseSQLShape checks the shape cache against direct translation: for
// every input, ShapeCache.Parse — on a miss, on a hit, and after another
// statement has seeded the cache — returns a query with the same String()
// as Parse, or the same error. Seeds pair statements of one shape with
// different literal values, so hits bind templates translated for other
// values.
func FuzzParseSQLShape(f *testing.F) {
	swap := strings.NewReplacer("u81", "u9", "u7", "u81", "AAB", "QQQ", "u3", "u4", "u500", "u3")
	for _, src := range []string{pairShapeSQL, seekShapeSQL, cliqueShapeSQL} {
		f.Add(src, swap.Replace(src))
	}
	for _, seed := range [][2]string{
		// Equal literals share a placeholder; a sibling that splits them has
		// a different shape.
		{`SELECT 'a', fno INTO ANSWER R WHERE ('a', fno) IN ANSWER R AND fno IN (SELECT fno FROM Flights WHERE dest = 'a') CHOOSE 1`,
			`SELECT 'a', fno INTO ANSWER R WHERE ('b', fno) IN ANSWER R AND fno IN (SELECT fno FROM Flights WHERE dest = 'a') CHOOSE 1`},
		// Literals spelled like placeholders.
		{`SELECT '$2', fno INTO ANSWER R WHERE ('$1', fno) IN ANSWER R AND fno IN (SELECT fno FROM Flights WHERE dest = '$1') CHOOSE 1`,
			`SELECT '$1', fno INTO ANSWER R WHERE ('x', fno) IN ANSWER R AND fno IN (SELECT fno FROM Flights WHERE dest = 'x') CHOOSE 1`},
		// '' escapes, and quotes inside comments.
		{"SELECT 'it''s', fno INTO ANSWER R -- Kramer's\nWHERE fno IN (SELECT fno FROM Flights WHERE dest = 'O''Hare') CHOOSE 1",
			"SELECT 'its', fno INTO ANSWER R -- Kramer's\nWHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') CHOOSE 1"},
		// Numbers stay in the shape; a literal equal to a number's text still
		// translates like the direct path.
		{`SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') AND fno = 122 CHOOSE 1`,
			`SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights WHERE dest = '122') AND fno = '122' CHOOSE 1`},
		{`SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'P') AND '5' = 5 CHOOSE 1`,
			`SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'P') AND '6' = 5 CHOOSE 1`},
		// Contradictions, and literals the translation drops.
		{`SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'P') AND 'a' = 'b' CHOOSE 1`,
			`SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'P') AND 'a' = 'a' CHOOSE 1`},
		// Non-ASCII text and invalid UTF-8 inside a literal.
		{`SELECT 'Zoë', fno INTO ANSWER R WHERE ('Łukasz', fno) IN ANSWER R AND fno IN (SELECT fno FROM Flights WHERE dest = 'Zürich') CHOOSE 1`,
			"SELECT 'Zo\xeb', fno INTO ANSWER R WHERE ('Łukasz', fno) IN ANSWER R AND fno IN (SELECT fno FROM Flights WHERE dest = 'Zürich') CHOOSE 1"},
		// Lexical and parse errors.
		{`SELECT 'a' INTO ANSWER R WHERE # 'b'`, `SELECT 'a', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Nowhere) CHOOSE 1`},
		{`SELECT 'unterminated`, `SELECT 'a' - 'b'`},
	} {
		f.Add(seed[0], seed[1])
	}
	opt := Options{AnswerSchemas: map[string][]string{"R": {"who", "fno"}}}
	direct := func(src string) (string, error) {
		tr, err := Parse(0, src, shapeSchema, opt)
		if err != nil {
			return "", err
		}
		return tr.Query.String(), nil
	}
	f.Fuzz(func(t *testing.T, src, other string) {
		c := NewShapeCache(shapeSchema, opt)
		for i, in := range []string{other, src, src, other} {
			want, wantErr := direct(in)
			q, err := c.Parse(in, 1)
			switch {
			case (err != nil) != (wantErr != nil):
				t.Fatalf("parse %d of %q: cached err %v, direct err %v", i, in, err, wantErr)
			case err != nil:
				if err.Error() != wantErr.Error() {
					t.Fatalf("parse %d of %q: cached err %q, direct err %q", i, in, err, wantErr)
				}
			case q.String() != want:
				t.Fatalf("parse %d of %q:\ncached %s\ndirect %s", i, in, q, want)
			}
		}
	})
}
