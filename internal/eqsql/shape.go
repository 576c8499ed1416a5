package eqsql

import (
	"strconv"
	"strings"
	"sync"

	"entangle/internal/ir"
)

// shapeCacheSize bounds a ShapeCache: the number of distinct statement
// shapes it holds at once. The benchmark's SQL streams use a few hundred
// (two or three statement forms × 64 ANSWER relations).
const shapeCacheSize = 1024

// ShapeCache makes the Prepare step of Parse → Prepare → Execute implicit
// for entangled SQL. Statements that differ only in their quoted string
// literals share a shape: the text with every literal lifted to a '$k'
// placeholder — equal values share k, numbered by first occurrence; numbers
// stay in the shape, because CHOOSE counts and aggregate bounds are
// semantic. A shape is translated once into a template, and every statement
// of that shape is its template with the literal values bound
// (ir.Query.BindPlaceholders): a scan for literals runs, the lexer, parser
// and translator do not. A shape whose template fails to translate, or
// drops one of its placeholders, is remembered as such and its statements
// are translated directly, so every query and every error, offsets
// included, is exactly what Parse returns.
//
// Templates depend on the schema, so lookups carry the caller's schema
// generation, and a generation newer than the cache's empties it. A
// ShapeCache is safe for concurrent use; one cache serves one (Schema,
// Options) pair.
type ShapeCache struct {
	schema Schema
	opt    Options

	mu  sync.Mutex
	gen uint64
	m   map[string]*ir.Query // shape → template; nil: translate each statement itself
}

// NewShapeCache returns an empty cache that translates against schema with
// opt.
func NewShapeCache(schema Schema, opt Options) *ShapeCache {
	return &ShapeCache{schema: schema, opt: opt, m: make(map[string]*ir.Query)}
}

// Parse returns the query Parse(0, src, schema, opt) translates src into.
// gen is the schema generation: the caller must advance it whenever a table
// the translation could consult is created, dropped or redefined.
func (c *ShapeCache) Parse(src string, gen uint64) (*ir.Query, error) {
	var shapeBuf [512]byte
	var valBuf [8]string
	if shape, vals, ok := lift(shapeBuf[:0], valBuf[:0], src); ok {
		if tpl := c.template(shape, gen, len(vals)); tpl != nil {
			return tpl.BindPlaceholders(vals)
		}
	}
	tr, err := Parse(0, src, c.schema, c.opt)
	if err != nil {
		return nil, err
	}
	return tr.Query, nil
}

// template returns the template of shape under schema generation gen,
// translating and caching it on a miss. nil means the statement must be
// translated itself: the shape does not translate, its translation lost one
// of its n placeholders, or gen is older than the cache.
func (c *ShapeCache) template(shape []byte, gen uint64, n int) *ir.Query {
	c.mu.Lock()
	if gen > c.gen {
		clear(c.m)
		c.gen = gen
	}
	if gen < c.gen {
		c.mu.Unlock()
		return nil
	}
	tpl, hit := c.m[string(shape)]
	c.mu.Unlock()
	if hit {
		return tpl
	}
	if tr, err := Parse(0, string(shape), c.schema, c.opt); err == nil {
		if k, err := tr.Query.PlaceholderCount(); err == nil && k == n {
			tpl = tr.Query
		}
	}
	c.mu.Lock()
	if gen == c.gen {
		if len(c.m) >= shapeCacheSize {
			for k := range c.m { // evict an arbitrary shape
				delete(c.m, k)
				break
			}
		}
		c.m[string(shape)] = tpl
	}
	c.mu.Unlock()
	return tpl
}

// lift appends src to dst with every string literal replaced by its '$k'
// placeholder, and appends the literal values to vals in placeholder order.
// It scans for literals and comments only, with the lexer's own rules for
// both — outside a literal no token contains a quote or "--" — so the
// lexer sees the same literals in src and the same tokens elsewhere, and
// any other lexical error recurs in the shape. ok is false for an
// unterminated literal.
func lift(dst []byte, vals []string, src string) (shape []byte, values []string, ok bool) {
	l := lexer{src: src}
	last := 0
	for l.pos < len(src) {
		switch c := src[l.pos]; {
		case c == '\'':
			start := l.pos
			v, err := l.lexString()
			if err != nil {
				return nil, nil, false
			}
			k := 0
			for k < len(vals) && vals[k] != v {
				k++
			}
			if k == len(vals) {
				vals = append(vals, v)
			}
			dst = append(dst, src[last:start]...)
			dst = append(dst, '\'', '$')
			dst = strconv.AppendInt(dst, int64(k+1), 10)
			dst = append(dst, '\'')
			last = l.pos
		case c == '-' && strings.HasPrefix(src[l.pos:], "--"):
			l.skipSpaceAndComments()
		default:
			l.pos++
		}
	}
	return append(dst, src[last:]...), vals, true
}
