package main

import (
	"fmt"
	"strings"

	"entangle/internal/ir"
)

// The benchmark renders its own wire text. ir.Query.String is not a safe wire
// form: it prints a constant such as u81 bare, and ir.Parse reads a bare
// lowercase-initial word back as a variable, which silently turns a point
// lookup into a join. Both renderers below quote every constant;
// render_test.go checks parse(render(q)) ≡ q for every generated shape.

// substrateCols is the schema d3cd -social loads (workload.PopulateDB).
var substrateCols = map[string][]string{
	"F": {"u1", "u2"},
	"U": {"u", "city"},
}

func quote(v string) string { return "'" + strings.ReplaceAll(v, "'", "''") + "'" }

// renderIR writes q in the IR text syntax with every constant quoted.
func renderIR(q *ir.Query) string {
	var b strings.Builder
	atoms := func(as []ir.Atom) {
		for i, a := range as {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.Rel)
			b.WriteByte('(')
			for j, t := range a.Args {
				if j > 0 {
					b.WriteString(", ")
				}
				if t.IsConst() {
					b.WriteString(quote(t.Value))
				} else {
					b.WriteString(t.Value)
				}
			}
			b.WriteByte(')')
		}
	}
	b.WriteByte('{')
	atoms(q.Posts)
	b.WriteString("} ")
	atoms(q.Heads)
	if len(q.Body) > 0 {
		b.WriteString(" :- ")
		atoms(q.Body)
	}
	return b.String()
}

// renderSQL writes q as entangled SQL: one head into one ANSWER relation,
// each postcondition as a tuple IN ANSWER condition, and the whole body as a
// single subquery whose FROM list holds one aliased item per body atom.
// Variables that the head or a postcondition uses are correlated references
// to the outer scope; the rest are tied together by column equalities.
func renderSQL(q *ir.Query) (string, error) {
	if len(q.Heads) != 1 || len(q.Body) == 0 {
		return "", fmt.Errorf("renderSQL: want one head and a body, got %d heads, %d body atoms", len(q.Heads), len(q.Body))
	}
	outer := make(map[string]bool)
	term := func(t ir.Term) string {
		if t.IsConst() {
			return quote(t.Value)
		}
		outer[t.Value] = true
		return t.Value
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, t := range q.Heads[0].Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(term(t))
	}
	b.WriteString(" INTO ANSWER " + q.Heads[0].Rel + " WHERE ")
	for _, p := range q.Posts {
		b.WriteByte('(')
		for i, t := range p.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(term(t))
		}
		b.WriteString(") IN ANSWER " + p.Rel + " AND ")
	}

	var from, conds []string
	site := make(map[string]string) // variable → first column that carries it
	var pick, pickVar string
	for i, a := range q.Body {
		cols, ok := substrateCols[a.Rel]
		if !ok || len(cols) != len(a.Args) {
			return "", fmt.Errorf("renderSQL: body atom %s does not fit the substrate schema", a)
		}
		alias := fmt.Sprintf("T%d", i)
		from = append(from, a.Rel+" "+alias)
		for j, t := range a.Args {
			col := alias + "." + cols[j]
			switch {
			case t.IsConst():
				conds = append(conds, col+" = "+quote(t.Value))
			case site[t.Value] != "":
				conds = append(conds, col+" = "+site[t.Value])
			default:
				site[t.Value] = col
				if outer[t.Value] {
					conds = append(conds, col+" = "+t.Value)
				} else if pick == "" {
					pick, pickVar = col, t.Value
				}
			}
		}
	}
	if pick == "" {
		// Every body variable is already an outer one; select any of them.
		for v, col := range site {
			pick, pickVar = col, v
			break
		}
		if pick == "" {
			return "", fmt.Errorf("renderSQL: body of %s has no variable to select", q)
		}
	}
	fmt.Fprintf(&b, "%s IN (SELECT %s FROM %s WHERE %s) CHOOSE 1",
		pickVar, pick, strings.Join(from, ", "), strings.Join(conds, " AND "))
	return b.String(), nil
}

// canonical renders q with variables numbered by first occurrence, so two
// queries are equal up to variable renaming iff their canonical forms match.
func canonical(q *ir.Query) string {
	names := make(map[string]string)
	ren := func(v string) string {
		if n, ok := names[v]; ok {
			return n
		}
		n := fmt.Sprintf("v%d", len(names))
		names[v] = n
		return n
	}
	cp := &ir.Query{Choose: q.Choose}
	for _, a := range q.Heads {
		cp.Heads = append(cp.Heads, a.Rename(ren))
	}
	for _, a := range q.Posts {
		cp.Posts = append(cp.Posts, a.Rename(ren))
	}
	for _, a := range q.Body {
		cp.Body = append(cp.Body, a.Rename(ren))
	}
	return renderIR(cp)
}
