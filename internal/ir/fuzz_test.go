package ir

import (
	"errors"
	"testing"
	"unicode/utf8"
)

// FuzzParseIR throws arbitrary bytes at the IR text parser. The contract
// under fuzzing: never panic; on failure return a *ParseError (errors.As)
// whose byte offset lies within the input; on success produce a query that
// Validate accepts and whose String form re-parses (the round-trip the
// tests pin for hand-written queries must hold for anything the parser
// accepts).
func FuzzParseIR(f *testing.F) {
	for _, seed := range []string{
		"{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)",
		"{R(Kramer, y) ∧ S(z)} R(Jerry, y) :- F(y, Paris) AND U(z, c)",
		"{} Lone(v) :- F(v, Oslo)",
		"{T(1)} R(y1) :- D2(y1)",
		"{R('paris', x)} R(x, x)",
		"{R(a, b} R(", // truncated
		"≥∧⊥ nonsense {{{",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(0, src)
		if err != nil {
			var pe *ParseError
			if errors.As(err, &pe) {
				if pe.Offset < 0 || pe.Offset > len(src) {
					t.Fatalf("ParseError offset %d outside input of %d bytes: %q", pe.Offset, len(src), src)
				}
				if pe.Offset < len(src) && utf8.ValidString(src) && !utf8.RuneStart(src[pe.Offset]) {
					t.Fatalf("ParseError offset %d splits a rune in %q", pe.Offset, src)
				}
			}
			// Validation failures surface without an offset; both forms are
			// fine, panics and wild offsets are not.
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("Parse accepted %q but Validate rejects the result: %v", src, err)
		}
		if _, err := Parse(0, q.String()); err != nil {
			t.Fatalf("accepted query %q renders as %q, which does not re-parse: %v", src, q.String(), err)
		}
	})
}

// FuzzDecodeBinary throws arbitrary bytes at the durable query decoder.
// The contract: never panic, and anything it accepts re-encodes to exactly
// the input (the encoding is canonical), so a decoded record means one
// thing only.
func FuzzDecodeBinary(f *testing.F) {
	for _, q := range adversarialQueries() {
		f.Add(string(AppendBinary(nil, q)))
	}
	f.Add("")
	f.Add("\x02\x00\xff\xff\xff\xff\x0f")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := DecodeBinary(src)
		if err != nil {
			return
		}
		if got := string(AppendBinary(nil, q)); got != src {
			t.Fatalf("decoded %q as %s, which re-encodes as %q", src, q, got)
		}
	})
}
