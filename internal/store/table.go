package store

import "fmt"

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type ColType
}

// Table is a heap of rows with optional B+tree secondary indexes. Rows get
// monotonically increasing row ids; indexes map encoded column prefixes to
// row ids.
type Table struct {
	Name    string
	Columns []Column
	rows    [][]Value
	indexes map[string]*tableIndex
}

type tableIndex struct {
	name string
	cols []int // column positions forming the key
	tree *BTree
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, cols ...Column) *Table {
	return &Table{Name: name, Columns: cols, indexes: map[string]*tableIndex{}}
}

// CreateIndex builds a secondary index over the named columns. Existing rows
// are indexed immediately.
func (t *Table) CreateIndex(name string, colNames ...string) error {
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		p := t.colPos(cn)
		if p < 0 {
			return fmt.Errorf("store: table %s has no column %q", t.Name, cn)
		}
		cols[i] = p
	}
	ix := &tableIndex{name: name, cols: cols, tree: NewBTree()}
	for rid, row := range t.rows {
		ix.tree.Insert(ix.key(row, rid), nil)
	}
	t.indexes[name] = ix
	return nil
}

func (t *Table) colPos(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// key encodes the index columns of row followed by the row id (to keep keys
// unique under duplicate column values).
func (ix *tableIndex) key(row []Value, rid int) []byte {
	var k []byte
	for _, c := range ix.cols {
		k = appendKeyValue(k, row[c])
	}
	return AppendKeyInt(k, int64(rid))
}

func appendKeyValue(dst []byte, v Value) []byte {
	if v.T == ColInt {
		return AppendKeyInt(dst, v.I)
	}
	return AppendKeyString(dst, v.S)
}

// Insert appends a row and maintains all indexes. The row must match the
// schema.
func (t *Table) Insert(row ...Value) (int, error) {
	if len(row) != len(t.Columns) {
		return 0, fmt.Errorf("store: table %s: %d values for %d columns", t.Name, len(row), len(t.Columns))
	}
	for i, v := range row {
		if v.T != t.Columns[i].Type {
			return 0, fmt.Errorf("store: table %s column %s: wrong type", t.Name, t.Columns[i].Name)
		}
	}
	rid := len(t.rows)
	t.rows = append(t.rows, row)
	for _, ix := range t.indexes {
		ix.tree.Insert(ix.key(row, rid), nil)
	}
	return rid, nil
}

// MustInsert is Insert that panics on schema mismatch (builder code paths).
func (t *Table) MustInsert(row ...Value) int {
	rid, err := t.Insert(row...)
	if err != nil {
		panic(err)
	}
	return rid
}

// Scan calls fn for every row in insertion order; fn may return false to
// stop.
func (t *Table) Scan(fn func(rid int, row []Value) bool) {
	for rid, row := range t.rows {
		if !fn(rid, row) {
			return
		}
	}
}

// LookupPrefix scans an index for rows whose leading index columns equal the
// given values, in index order.
func (t *Table) LookupPrefix(indexName string, fn func(rid int, row []Value) bool, vals ...Value) error {
	ix, ok := t.indexes[indexName]
	if !ok {
		return fmt.Errorf("store: table %s has no index %q", t.Name, indexName)
	}
	if len(vals) > len(ix.cols) {
		return fmt.Errorf("store: index %s has %d columns, got %d lookup values", indexName, len(ix.cols), len(vals))
	}
	var prefix []byte
	for _, v := range vals {
		prefix = appendKeyValue(prefix, v)
	}
	ix.tree.ScanPrefix(prefix, func(key, _ []byte) bool {
		// Row id is the trailing 8 bytes.
		rid, _ := DecodeKeyInt(key[len(key)-8:])
		return fn(int(rid), t.rows[rid])
	})
	return nil
}

// SizeBytes estimates the serialized footprint of the table including its
// indexes (key bytes). This is the figure the index-size experiment reports.
func (t *Table) SizeBytes() int64 {
	var total int64
	for _, row := range t.rows {
		total += int64(len(appendRow(nil, row)))
	}
	for _, ix := range t.indexes {
		for it := ix.tree.Min(); it.Valid(); it.Next() {
			total += int64(len(it.Key()))
		}
	}
	return total
}

// DB is a named collection of tables.
type DB struct {
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: map[string]*Table{}} }

// Create adds a table; it replaces any existing table with the same name.
func (db *DB) Create(name string, cols ...Column) *Table {
	t := NewTable(name, cols...)
	db.tables[name] = t
	return t
}

// Table returns the named table or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// SizeBytes sums the serialized footprint of all tables.
func (db *DB) SizeBytes() int64 {
	var total int64
	for _, t := range db.tables {
		total += t.SizeBytes()
	}
	return total
}
