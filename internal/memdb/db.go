// Package memdb is the relational database substrate for the D3C engine.
//
// The paper's implementation sent combined queries to MySQL 4.1.20 over
// JDBC. This reproduction is stdlib-only, so memdb provides the slice of
// relational functionality those combined queries need: named tables with
// string-valued columns, hash indexes, and an evaluator for conjunctive
// (select-project-join) queries with equality constraints and LIMIT — which
// is exactly the class of queries that Section 4.2's combined-query
// construction emits.
//
// # Storage layout: dictionary IDs inside, strings at the boundary
//
// Every value is a string at the API boundary and a uint32 inside. A DB owns
// one dictionary (string ⇄ ID, guarded by the DB lock); Insert interns each
// value once, a table stores one []uint32 per column, and a hash index is a
// []uint32 posting arena located by value ID (index.go). The row store and
// the postings therefore contain no pointers: the collector never scans
// them, and the paper's 1.07 M-row Friends relation costs ~12 bytes a row
// instead of ~170. Joins compare and bind IDs only. A query's constants and
// parameters are looked up — never interned — once per execution, so a
// constant the database has not seen simply matches nothing; compiled plans
// stay DB-independent (they keep the strings), because a constant absent
// when a plan was compiled may be inserted before it next runs. Strings
// reappear only where an answer leaves the package: ExecPlan converts each
// result row while it still holds the read lock, so ExecState.Row, Rows and
// FilterCtx.Slot hand out ordinary strings.
//
// The dictionary is grow-only: IDs are never reused or renumbered, so
// postings, snapshots and in-flight executions never see an ID change
// meaning. The price is that Delete, DeleteRow and DropTable free rows and
// postings but not dictionary entries — after a mass delete the strings of
// the departed rows stay resident (and travel in snapshots) until the
// process rebuilds the database, e.g. by copying Rows into a fresh DB.
// Values and rows are counted in uint32, which bounds a DB to 2³²−2
// distinct values and a table to 2³²−1 rows.
//
// Tables are safe for concurrent readers; writers take an exclusive lock.
//
// # Snapshot format v2
//
// WriteSnapshot streams the layout above as it sits in memory (little
// endian, no row is ever materialised to encode or decode):
//
//	"MDBS" | version u32 = 2
//	dictionary: count u32, then per value: length u32 | bytes
//	tables:     count u32, then per table (sorted by name):
//	              name | column count u32 | column names | row count u32
//	              per column: row-count raw u32 value IDs
//	              indexed-column count u32 | column positions u32 (ascending)
//	trailer:    CRC-32C of every preceding byte
//
// ReadSnapshot validates everything it reads — lengths are never trusted
// for allocation, IDs must fall inside the dictionary, the trailer must
// match — and rebuilds the listed indexes. The gob form written before this
// layout (v1), like any input without the magic and version, is refused
// with ErrSnapshotVersion.
//
// # Compiled evaluation plans
//
// Evaluation is split into a compile step and an execute step (plan.go).
// CompilePlan (or, on hot paths, a pooled PlanBuilder fed pre-classified
// argument descriptors) interns variables to dense binding slots, folds
// equality constraints into the descriptors, and fixes the entire join
// order and each atom's index-probe position at compile time. Atom
// selection is cardinality-aware: each candidate's cost is its table's
// live row count shifted down by three bits per const/bound argument
// position (size >> min(3·bound, 30)) — a selectivity estimate that sends
// the join through small or well-bound relations first — with ties broken
// by more bound positions, then input order; since the rule reads only
// table sizes and the const/bound pattern, never row values, the order is
// still a compile-time constant for a given database state. ExecPlan then
// runs the backtracking join over a slice-backed binding array with an int
// trail, building hash indexes for exactly the declared probe positions
// (never-probed positions stay unindexed) and allocating nothing in steady
// state with a reused ExecState. Single-atom plans skip the join-order
// simulation entirely. The map-backed evaluator the compiled path replaced
// lives on in this package's tests as the executable specification it is
// equivalence-tested against (identical valuations and CHOOSE draws).
//
// # Plan cache
//
// Compiled plans are cacheable and parameterised: constant positions can
// compile to late-bound parameters (PlanBuilder.AddParam +
// ExecState.SetParams), so one plan serves every query of the same shape
// and only the parameter values differ per execution. PlanCache is the
// shape-keyed, LRU-bounded, concurrency-safe store for such plans; cached
// plans are detached from their builder's pooled storage. Invalidation is
// by unreachability: every shape key embeds the DB's stats epoch
// (StatsEpoch), which bumps on DDL (CreateTable/DropTable/ReadSnapshot)
// and when a table's row count drifts outside a band around the count the
// epoch last saw (planRows; grow past 2n+16 or shrink below n/2) — so
// plans whose join order was chosen for stale cardinalities age out of the
// LRU instead of being served.
package memdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// noID is the value ID of a string the dictionary does not hold. No stored
// value carries it, so comparing against it fails and probing with it finds
// nothing — which is how an unknown constant matches no row.
const noID = ^uint32(0)

// dict is the DB's grow-only value dictionary. Guarded by DB.mu.
type dict struct {
	ids  map[string]uint32
	strs []string // by ID
}

// lookup returns the ID of s, or noID when s was never inserted.
func (d *dict) lookup(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	return noID
}

// lookupAll appends the ID of each string (noID for unknown ones) to dst.
func (d *dict) lookupAll(dst []uint32, strs []string) []uint32 {
	for _, s := range strs {
		dst = append(dst, d.lookup(s))
	}
	return dst
}

// intern returns the ID of s, assigning the next one on first sight. The
// dictionary keeps its own copy, so it never pins a caller's larger buffer
// (a script, a wire line) through a substring.
func (d *dict) intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	s = strings.Clone(s)
	id := uint32(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	return id
}

// Table is a named relation with a fixed column list, stored column-wise
// as dictionary IDs. Hash indexes are built lazily per column on first use
// by the evaluator.
type Table struct {
	name     string
	colNames []string
	cols     [][]uint32 // cols[c][row] = value ID; at least one column, all equally long
	indexes  []*index   // by column position; nil = not indexed
	// planRows is the row count at the last stats-epoch bump attributed to
	// this table. Join-order compilation reads live row counts; once the
	// count drifts outside a band around planRows the DB's stats epoch is
	// bumped so shape-keyed plan caches stop serving orders chosen for the
	// old cardinality. Guarded by the DB write lock.
	planRows int
}

func newTable(name string, cols []string) *Table {
	return &Table{
		name:     name,
		colNames: append([]string(nil), cols...),
		cols:     make([][]uint32, len(cols)),
		indexes:  make([]*index, len(cols)),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns a copy of the column names.
func (t *Table) Columns() []string { return append([]string(nil), t.colNames...) }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.cols[0]) }

// Arity returns the number of columns.
func (t *Table) Arity() int { return len(t.colNames) }

// colIndex returns the position of the named column, or -1.
func (t *Table) colIndex(name string) int {
	for i, c := range t.colNames {
		if c == name {
			return i
		}
	}
	return -1
}

// DB is an in-memory relational database.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	dict   dict
	// statsEpoch advances whenever the inputs of join-order compilation
	// change materially: any DDL (table created or dropped), and any table
	// whose row count drifts outside the band around its count at the last
	// bump. Plan caches key on the epoch, so a bump makes every cached join
	// order unreachable without an explicit purge.
	statsEpoch atomic.Uint64
}

// New returns an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*Table), dict: dict{ids: make(map[string]uint32)}}
}

// CreateTable creates a table with the given columns. It fails if the table
// exists or has no columns.
func (db *DB) CreateTable(name string, cols ...string) error {
	if len(cols) == 0 {
		return fmt.Errorf("memdb: table %s needs at least one column", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("memdb: table %s already exists", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c] {
			return fmt.Errorf("memdb: table %s: duplicate column %s", name, c)
		}
		seen[c] = true
	}
	db.tables[name] = newTable(name, cols)
	db.statsEpoch.Add(1)
	return nil
}

// MustCreateTable is CreateTable that panics on error; for tests and setup
// code with literal schemas.
func (db *DB) MustCreateTable(name string, cols ...string) {
	if err := db.CreateTable(name, cols...); err != nil {
		panic(err)
	}
}

// DropTable removes a table. It returns an error if the table is unknown.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("memdb: no table %s", name)
	}
	delete(db.tables, name)
	db.statsEpoch.Add(1)
	return nil
}

// StatsEpoch returns the current statistics epoch: a counter that advances
// on DDL and whenever some table's row count drifts outside the band around
// its count at the previous bump. Callers that cache anything derived from
// table cardinalities (compiled join orders) should key on it.
func (db *DB) StatsEpoch() uint64 { return db.statsEpoch.Load() }

// noteSizeLocked bumps the stats epoch when t's row count has drifted
// outside the band around the count recorded at the last bump — growth past
// 2n+16 or shrinkage below n/2. The band makes epoch bumps logarithmic in
// table growth: steady inserts invalidate cached join orders O(log n) times,
// not per row. Caller holds the write lock.
func (db *DB) noteSizeLocked(t *Table) {
	if n := t.Len(); n > 2*t.planRows+16 || n < t.planRows/2 {
		t.planRows = n
		db.statsEpoch.Add(1)
	}
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// TableNames returns the sorted table names.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableNamesLocked()
}

func (db *DB) tableNamesLocked() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert appends one row. The value count must match the table's arity.
func (db *DB) Insert(table string, values ...string) error {
	return db.BulkInsert(table, [][]string{values})
}

// MustInsert is Insert that panics on error.
func (db *DB) MustInsert(table string, values ...string) {
	if err := db.Insert(table, values...); err != nil {
		panic(err)
	}
}

// BulkInsert appends many rows at once under a single lock acquisition.
// The rows are read, not retained, so callers may reuse their buffers.
func (db *DB) BulkInsert(table string, rows [][]string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("memdb: no table %s", table)
	}
	defer db.noteSizeLocked(t)
	for _, values := range rows {
		if err := db.appendRowLocked(t, values); err != nil {
			return err
		}
	}
	return nil
}

// appendRowLocked interns values and appends them as t's next row, keeping
// every existing index current. Caller holds the write lock.
func (db *DB) appendRowLocked(t *Table, values []string) error {
	if len(values) != len(t.colNames) {
		return fmt.Errorf("memdb: table %s has %d columns, got %d values", t.name, len(t.colNames), len(values))
	}
	row := uint32(t.Len())
	for col, v := range values {
		id := db.dict.intern(v)
		t.cols[col] = append(t.cols[col], id)
		if ix := t.indexes[col]; ix != nil {
			ix.add(id, row)
		}
	}
	return nil
}

// CreateIndex builds (or rebuilds) a hash index on the given column.
func (db *DB) CreateIndex(table, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("memdb: no table %s", table)
	}
	col := t.colIndex(column)
	if col < 0 {
		return fmt.Errorf("memdb: table %s has no column %s", table, column)
	}
	t.buildIndex(col)
	return nil
}

// buildIndex constructs the hash index for a column position. Caller holds
// the write lock (or is the evaluator, which upgrades explicitly).
func (t *Table) buildIndex(col int) {
	t.indexes[col] = newIndex(t.cols[col])
}

// rebuildIndexes rebuilds every existing index after rows moved (deletes
// compact the columns, renumbering rows). Caller holds the write lock.
func (t *Table) rebuildIndexes() {
	for col, ix := range t.indexes {
		if ix != nil {
			t.buildIndex(col)
		}
	}
}

// lookupEq returns the row ids whose column holds the value ID (ascending,
// i.e. insertion order either way): the index's posting list when one
// exists, otherwise a scan appended into scratch so the fallback allocates
// nothing once the caller's scratch has grown. The second result is the
// scratch to retain for the next call — the caller must NOT retain the
// first result as scratch, since in the indexed case it aliases the live
// index. Caller holds at least the read lock.
func (t *Table) lookupEq(col int, id uint32, scratch []uint32) (rows, retain []uint32) {
	if ix := t.indexes[col]; ix != nil {
		return ix.lookup(id), scratch
	}
	out := scratch[:0]
	for row, v := range t.cols[col] {
		if v == id {
			out = append(out, uint32(row))
		}
	}
	return out, out
}

// Rows returns a snapshot copy of all rows. Intended for tests and tools,
// not hot paths.
func (db *DB) Rows(table string) ([][]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[table]
	if !ok {
		return nil, fmt.Errorf("memdb: no table %s", table)
	}
	return db.rowsLocked(t), nil
}

// rowsLocked materialises every row of t as strings, carved from one
// backing array. Caller holds at least the read lock.
func (db *DB) rowsLocked(t *Table) [][]string {
	arity := len(t.colNames)
	out := make([][]string, t.Len())
	flat := make([]string, len(out)*arity)
	for i := range out {
		row := flat[i*arity : (i+1)*arity : (i+1)*arity]
		for c := range row {
			row[c] = db.dict.strs[t.cols[c][i]]
		}
		out[i] = row
	}
	return out
}

// String summarizes the database contents.
func (db *DB) String() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var b strings.Builder
	for _, n := range db.tableNamesLocked() {
		t := db.tables[n]
		fmt.Fprintf(&b, "%s(%s): %d rows\n", n, strings.Join(t.colNames, ", "), t.Len())
	}
	return b.String()
}
