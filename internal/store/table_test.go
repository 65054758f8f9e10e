package store

import (
	"reflect"
	"testing"
)

func wordTable() *Table {
	t := NewTable("W",
		Column{"word", ColString},
		Column{"x", ColInt},
		Column{"y", ColInt},
	)
	return t
}

func TestTableInsertScanLookup(t *testing.T) {
	tb := wordTable()
	if err := tb.CreateIndex("by_word", "word"); err != nil {
		t.Fatal(err)
	}
	tb.MustInsert(StrVal("ate"), IntVal(0), IntVal(1))
	tb.MustInsert(StrVal("delicious"), IntVal(0), IntVal(9))
	tb.MustInsert(StrVal("ate"), IntVal(1), IntVal(1))
	if len(tb.rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tb.rows))
	}
	var got [][]Value
	if err := tb.LookupPrefix("by_word", func(rid int, row []Value) bool {
		got = append(got, row)
		return true
	}, StrVal("ate")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("lookup ate: %d rows, want 2", len(got))
	}
	// Index order: insertion order within equal keys (rid tiebreak).
	if got[0][1].I != 0 || got[1][1].I != 1 {
		t.Errorf("rows out of order: %v", got)
	}
	// Prefix must not match other words.
	count := 0
	_ = tb.LookupPrefix("by_word", func(int, []Value) bool { count++; return true }, StrVal("at"))
	if count != 0 {
		t.Errorf("prefix 'at' matched %d rows, want 0 (exact component match)", count)
	}
}

func TestTableCompositeIndex(t *testing.T) {
	tb := NewTable("P",
		Column{"label", ColString},
		Column{"sid", ColInt},
		Column{"tid", ColInt},
	)
	if err := tb.CreateIndex("by_label_sid", "label", "sid"); err != nil {
		t.Fatal(err)
	}
	for sid := int64(0); sid < 5; sid++ {
		tb.MustInsert(StrVal("dobj"), IntVal(sid), IntVal(sid*2))
		tb.MustInsert(StrVal("nsubj"), IntVal(sid), IntVal(sid*3))
	}
	var tids []int64
	_ = tb.LookupPrefix("by_label_sid", func(rid int, row []Value) bool {
		tids = append(tids, row[2].I)
		return true
	}, StrVal("dobj"), IntVal(3))
	if !reflect.DeepEqual(tids, []int64{6}) {
		t.Errorf("composite lookup = %v", tids)
	}
	tids = nil
	_ = tb.LookupPrefix("by_label_sid", func(rid int, row []Value) bool {
		tids = append(tids, row[2].I)
		return true
	}, StrVal("dobj"))
	if !reflect.DeepEqual(tids, []int64{0, 2, 4, 6, 8}) {
		t.Errorf("prefix lookup = %v", tids)
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
	if err := tb.LookupPrefix("missing", func(int, []Value) bool { return true }); err == nil {
		t.Error("lookup on missing index accepted")
	}
}
