package store

import "testing"

func wordTable() *Table {
	t := NewTable("W",
		Column{"word", ColString},
		Column{"x", ColInt},
		Column{"y", ColInt},
	)
	return t
}

// TestTableSizeBytes pins the footprint arithmetic Figure 6 reports: the
// compact row encoding plus one key per row and index, whether the index
// exists before the rows or is built over them.
func TestTableSizeBytes(t *testing.T) {
	insert := func(tb *Table) {
		tb.MustInsert(StrVal("ate"), IntVal(0), IntVal(1))
		tb.MustInsert(StrVal("delicious"), IntVal(0), IntVal(9))
		tb.MustInsert(StrVal("ate"), IntVal(1), IntVal(1))
	}
	// Rows: a count byte, then a tag byte per cell, a length byte before a
	// string, one varint byte per small int: 10 + 16 + 10. Keys: the
	// escaped word and its 2-byte terminator, then the 8-byte row id:
	// 13 + 19 + 13 (the duplicate "ate" key stays distinct by row id).
	const want = 36 + 45
	before := wordTable()
	if err := before.CreateIndex("by_word", "word"); err != nil {
		t.Fatal(err)
	}
	insert(before)
	if got := before.SizeBytes(); got != want {
		t.Errorf("index then rows: SizeBytes = %d, want %d", got, want)
	}
	after := wordTable()
	insert(after)
	if got := after.SizeBytes(); got != 36 {
		t.Errorf("rows only: SizeBytes = %d, want 36", got)
	}
	if err := after.CreateIndex("by_word", "word"); err != nil {
		t.Fatal(err)
	}
	if got := after.SizeBytes(); got != want {
		t.Errorf("rows then index: SizeBytes = %d, want %d", got, want)
	}
	db := NewDB()
	insert(db.Create("W", before.Columns...))
	insert(db.Create("X", before.Columns...))
	if got := db.SizeBytes(); got != 2*36 {
		t.Errorf("DB.SizeBytes = %d, want %d", got, 2*36)
	}
}

func TestTableCompositeIndex(t *testing.T) {
	cols := []Column{{"label", ColString}, {"sid", ColInt}, {"tid", ColInt}}
	plain, indexed := NewTable("P", cols...), NewTable("P", cols...)
	if err := indexed.CreateIndex("by_label_sid", "label", "sid"); err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{plain, indexed} {
		for sid := int64(0); sid < 5; sid++ {
			tb.MustInsert(StrVal("dobj"), IntVal(sid), IntVal(sid*2))
			tb.MustInsert(StrVal("nsubj"), IntVal(sid), IntVal(sid*3))
		}
	}
	// A composite key is every index column in order, then the row id:
	// "dobj" keys are 6+8+8 bytes, "nsubj" keys 7+8+8.
	if got, want := indexed.SizeBytes()-plain.SizeBytes(), int64(5*22+5*23); got != want {
		t.Errorf("composite key bytes = %d, want %d", got, want)
	}
}

func TestTableErrors(t *testing.T) {
	tb := wordTable()
	if _, err := tb.Insert(StrVal("x")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := tb.Insert(IntVal(1), IntVal(2), IntVal(3)); err == nil {
		t.Error("wrong type accepted")
	}
	if err := tb.CreateIndex("bad", "nope"); err == nil {
		t.Error("index on missing column accepted")
	}
}
