package blockstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/koko/index"
	"repro/internal/nlp"
)

// sentenceDiff reports how a sentence read through columns differs from the
// parser's sentence, or nil when every attribute the engine reads agrees:
// the rendering of every span, the tree (root, heads, depths, subtree
// bounds), the lowered words, POS tags, parse labels, and entities.
func sentenceDiff(want *nlp.Sentence, got *index.Sent) error {
	n := len(want.Tokens)
	if got.Len() != n {
		return fmt.Errorf("%d tokens, want %d", got.Len(), n)
	}
	if got.String() != want.String() {
		return fmt.Errorf("String() = %q, want %q", got.String(), want.String())
	}
	if got.Root != want.Root() {
		return fmt.Errorf("root %d, want %d", got.Root, want.Root())
	}
	str := got.Dict.Str
	for i := range want.Tokens {
		w := &want.Tokens[i]
		if str(got.Surface[i]) != w.Text || str(got.Lower[i]) != w.Lower || str(got.POS[i]) != w.POS || str(got.Label[i]) != w.Label {
			return fmt.Errorf("token %d = %q/%q/%s/%s, want %q/%q/%s/%s", i,
				str(got.Surface[i]), str(got.Lower[i]), str(got.POS[i]), str(got.Label[i]), w.Text, w.Lower, w.POS, w.Label)
		}
		if int(got.Head[i]) != w.Head || int(got.Depth[i]) != w.Depth || int(got.SubL[i]) != w.SubL || int(got.SubR[i]) != w.SubR {
			return fmt.Errorf("token %d tree head=%d depth=%d sub=[%d,%d], want head=%d depth=%d sub=[%d,%d]", i,
				got.Head[i], got.Depth[i], got.SubL[i], got.SubR[i], w.Head, w.Depth, w.SubL, w.SubR)
		}
		for r := i; r < n; r++ {
			if got.Text(i, r) != want.Text(i, r) {
				return fmt.Errorf("Text(%d, %d) = %q, want %q", i, r, got.Text(i, r), want.Text(i, r))
			}
		}
		we, ge := want.EntityAt(i), got.EntityID[i]
		if (we == nil) != (ge < 0) || we != nil && (str(got.EntType[ge]) != we.Type || int(got.EntL[ge]) != we.L || int(got.EntR[ge]) != we.R) {
			return fmt.Errorf("token %d entity differs", i)
		}
	}
	if len(got.EntType) != len(want.Entities) {
		return fmt.Errorf("%d entities, want %d", len(got.EntType), len(want.Entities))
	}
	for e, we := range want.Entities {
		if str(got.EntType[e]) != we.Type || int(got.EntL[e]) != we.L || int(got.EntR[e]) != we.R || got.Text(we.L, we.R) != we.Text {
			return fmt.Errorf("entity %d = %s[%d,%d], want %s[%d,%d] %q", e, str(got.EntType[e]), got.EntL[e], got.EntR[e], we.Type, we.L, we.R, we.Text)
		}
	}
	return nil
}

// parityCorpora are the generators the benchmarks and experiments serve
// (GenHappyDB is also what the synthtree and synthspan query generators
// run over), plus text with non-ASCII capitals and runs of marks.
func parityCorpora() map[string]*index.Corpus {
	wiki, _ := corpus.GenWikipedia(120, 3)
	return map[string]*index.Corpus{
		"happydb":   corpus.GenHappyDB(300, 2),
		"wikipedia": wiki,
		"cafes":     corpus.GenCafes(corpus.BaristaMagConfig(4)).Corpus,
		"non-ascii": index.NewCorpus(nil, []string{
			"Über cafes served Éclairs today... I ate ÉCLAIRS with Ödön -- and Ångström at Café Zoë.",
			"Wait... . The U.S. team won -- - at 5 p.m. in São Paulo; Łódź lost!",
			"ÇA VA? Müller's café — the İstanbul branch — sells crêpes.",
		}),
	}
}

// TestColumnsMatchParsedSentences: every sentence read through a shard's
// columns equals the parser's sentence, both when the columns are built from
// the parsed corpus and when they are decoded from a block store of it; and
// writing the decoded columns reproduces the store byte for byte.
func TestColumnsMatchParsedSentences(t *testing.T) {
	for name, c := range parityCorpora() {
		heap := index.ColumnsOf(c)
		path := filepath.Join(t.TempDir(), name+".koko")
		if err := Write(path, c, index.Build(c)); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for kind, cols := range map[string]*index.Columns{"heap": heap, "decoded": r.Columns()} {
			if cols.NumSentences() != c.NumSentences() || !reflect.DeepEqual(cols.Docs, c.Docs) {
				t.Fatalf("%s %s: %d sentences, docs %v; want %d, %v", name, kind, cols.NumSentences(), cols.Docs, c.NumSentences(), c.Docs)
			}
			for sid := range c.Sentences {
				if int(cols.DocOfSent[sid]) != c.DocOfSent[sid] {
					t.Fatalf("%s %s: sentence %d in doc %d, want %d", name, kind, sid, cols.DocOfSent[sid], c.DocOfSent[sid])
				}
				got := cols.Sent(sid)
				if err := sentenceDiff(&c.Sentences[sid], &got); err != nil {
					t.Fatalf("%s %s sentence %d %q: %v", name, kind, sid, c.Sentences[sid].String(), err)
				}
			}
		}
		again := filepath.Join(t.TempDir(), name+"-again.koko")
		if err := WriteColumns(again, r.Columns(), index.BuildColumns(r.Columns())); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(path)
		b, _ := os.ReadFile(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: rewriting the decoded store gives %d bytes that differ from the original %d", name, len(b), len(a))
		}
		r.Close()
	}
}

// TestColumnsHoldNoPointers: every per-token, per-sentence and per-entity
// column's element type is pointer-free, so the garbage collector never
// scans them.
func TestColumnsHoldNoPointers(t *testing.T) {
	typ := reflect.TypeOf(index.Columns{})
	columns := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Name {
		case "Dict", "Docs", "tree": // one string per distinct string / document, and scratch
			continue
		}
		if f.Type.Kind() != reflect.Slice {
			t.Errorf("column %s is a %v, not a slice", f.Name, f.Type)
			continue
		}
		if hasPointers(f.Type.Elem()) {
			t.Errorf("column %s has element type %v, which holds pointers", f.Name, f.Type.Elem())
		}
		columns++
	}
	if columns < 15 {
		t.Errorf("checked %d columns; the struct lost its columns?", columns)
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}
