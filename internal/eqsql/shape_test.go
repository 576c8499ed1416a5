package eqsql

import (
	"strings"
	"testing"
)

// TestShapeCacheSharesTemplates pins what the cache is for: statements that
// differ only in their literals resolve to one cached template, a different
// equality pattern among the literals is a different shape, and a newer
// schema generation empties the cache.
func TestShapeCacheSharesTemplates(t *testing.T) {
	c := NewShapeCache(shapeSchema, Options{})
	parse := func(src string, gen uint64) {
		t.Helper()
		tr, err := Parse(0, src, shapeSchema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		q, err := c.Parse(src, gen)
		if err != nil {
			t.Fatal(err)
		}
		if q.String() != tr.Query.String() {
			t.Fatalf("cached %s, direct %s", q, tr.Query)
		}
	}
	parse(pairShapeSQL, 1)
	parse(strings.NewReplacer("u81", "u1", "u7", "u2").Replace(pairShapeSQL), 1)
	parse(strings.ReplaceAll(pairShapeSQL, "AAB", "ZZZ"), 1)
	if len(c.m) != 1 {
		t.Fatalf("three statements of one shape cached %d templates, want 1", len(c.m))
	}
	for shape, tpl := range c.m {
		if tpl == nil {
			t.Fatalf("shape %q cached as untranslatable", shape)
		}
	}
	// The partner now equals the user: two distinct values become one.
	parse(strings.ReplaceAll(pairShapeSQL, "u7", "u81"), 1)
	if len(c.m) != 2 {
		t.Fatalf("a new equality pattern must be a new shape: %d templates", len(c.m))
	}
	parse(pairShapeSQL, 2)
	if len(c.m) != 1 || c.gen != 2 {
		t.Fatalf("generation 2 kept %d templates (cache generation %d)", len(c.m), c.gen)
	}
}
