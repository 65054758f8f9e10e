package store

import "fmt"

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type ColType
}

// Table is a heap of rows with optional secondary indexes. Rows get
// monotonically increasing row ids. An index is sized, not searched: it
// keeps the byte total of its keys (encoded index columns plus row id), the
// footprint a B-tree over them would hold. Nothing reads a table back.
type Table struct {
	Name    string
	Columns []Column
	rows    [][]Value
	indexes map[string]*tableIndex
}

type tableIndex struct {
	cols     []int // column positions forming the key
	keyBytes int64 // summed length of every row's key
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, cols ...Column) *Table {
	return &Table{Name: name, Columns: cols, indexes: map[string]*tableIndex{}}
}

// CreateIndex adds a secondary index over the named columns. Existing rows
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
	ix := &tableIndex{cols: cols}
	for rid, row := range t.rows {
		ix.add(row, rid)
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

// add counts row's key: its index columns followed by the row id, which
// keeps keys unique under duplicate column values, so every row's key
// counts.
func (ix *tableIndex) add(row []Value, rid int) {
	var k []byte
	for _, c := range ix.cols {
		k = appendKeyValue(k, row[c])
	}
	ix.keyBytes += int64(len(AppendKeyInt(k, int64(rid))))
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
		ix.add(row, rid)
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

// SizeBytes estimates the serialized footprint of the table including its
// indexes (key bytes). This is the figure the index-size experiment reports.
func (t *Table) SizeBytes() int64 {
	var total int64
	for _, row := range t.rows {
		total += int64(len(appendRow(nil, row)))
	}
	for _, ix := range t.indexes {
		total += ix.keyBytes
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

// SizeBytes sums the serialized footprint of all tables.
func (db *DB) SizeBytes() int64 {
	var total int64
	for _, t := range db.tables {
		total += t.SizeBytes()
	}
	return total
}
