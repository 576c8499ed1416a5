package memdb

import "fmt"

// Delete removes every row whose column equals value and returns the number
// of rows removed. Deletion is physical: rows after the deleted ones shift
// down and all indexes on the table are rebuilt, so Delete costs O(rows);
// it is intended for inventory-style updates between coordination rounds
// (the database must not change *during* a coordination round —
// Section 2.3 — which the engine's evaluation paths guarantee by holding
// the coordination lock, not this method). Dictionary entries outlive the
// rows that introduced them (see the package comment).
func (db *DB) Delete(table, column, value string) (int, error) {
	return db.DeleteRow(table, map[string]string{column: value})
}

// DeleteRow removes rows matching all given column=value conditions,
// returning the count removed.
func (db *DB) DeleteRow(table string, conds map[string]string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return 0, fmt.Errorf("memdb: no table %s", table)
	}
	type cond struct {
		col []uint32
		id  uint32
	}
	cs := make([]cond, 0, len(conds))
	for name, v := range conds {
		col := t.colIndex(name)
		if col < 0 {
			return 0, fmt.Errorf("memdb: table %s has no column %s", table, name)
		}
		cs = append(cs, cond{t.cols[col], db.dict.lookup(v)})
	}
	n, kept := t.Len(), 0
rows:
	for row := 0; row < n; row++ {
		for _, c := range cs {
			if c.col[row] != c.id {
				for _, col := range t.cols {
					col[kept] = col[row]
				}
				kept++
				continue rows
			}
		}
	}
	if kept == n {
		return 0, nil
	}
	for i := range t.cols {
		t.cols[i] = t.cols[i][:kept]
	}
	t.rebuildIndexes()
	db.noteSizeLocked(t)
	return n - kept, nil
}
