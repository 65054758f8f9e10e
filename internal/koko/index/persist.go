package index

import (
	"fmt"
	"strings"

	"repro/internal/store"
)

// Save materializes the multi-index into db using the paper's §6.2.1
// schemas (Figure 6 measures their footprint):
//
//	W(word, x, y, u, v, d, plid, posid)   with a B-tree on word
//	E(entity, etype, x, u, v)             with a B-tree on entity
//	PL/POS(id, label, depth, aid, alabel, adepth)   — closure tables
//
// E's rows are the columns' entity mentions, keyed by lowered text. The
// closure tables contain one row per (node, ancestor-or-self) pair,
// exactly the Closure Table representation the paper cites [25].
func (ix *Index) Save(db *store.DB) error {
	if ix.src != nil {
		return fmt.Errorf("index: block-backed index cannot be saved row-wise; rebuild from the corpus first")
	}
	w := db.Create("W",
		store.Column{Name: "word", Type: store.ColString},
		store.Column{Name: "x", Type: store.ColInt},
		store.Column{Name: "y", Type: store.ColInt},
		store.Column{Name: "u", Type: store.ColInt},
		store.Column{Name: "v", Type: store.ColInt},
		store.Column{Name: "d", Type: store.ColInt},
		store.Column{Name: "plid", Type: store.ColInt},
		store.Column{Name: "posid", Type: store.ColInt},
	)
	if err := w.CreateIndex("by_word", "word"); err != nil {
		return err
	}
	for word, ps := range ix.Word {
		for _, p := range ps {
			w.MustInsert(
				store.StrVal(word),
				store.IntVal(int64(p.Sid)), store.IntVal(int64(p.Tid)),
				store.IntVal(int64(p.U)), store.IntVal(int64(p.V)), store.IntVal(int64(p.D)),
				store.IntVal(int64(ix.PLID(p.Sid, p.Tid))), store.IntVal(int64(ix.POSID(p.Sid, p.Tid))),
			)
		}
	}
	e := db.Create("E",
		store.Column{Name: "entity", Type: store.ColString},
		store.Column{Name: "etype", Type: store.ColString},
		store.Column{Name: "x", Type: store.ColInt},
		store.Column{Name: "u", Type: store.ColInt},
		store.Column{Name: "v", Type: store.ColInt},
	)
	if err := e.CreateIndex("by_entity", "entity"); err != nil {
		return err
	}
	var sent Sent
	for sid := range ix.cols.NumSentences() {
		ix.cols.LoadSent(&sent, sid)
		for k := range sent.EntType {
			l, r := sent.EntL[k], sent.EntR[k]
			e.MustInsert(
				store.StrVal(strings.ToLower(sent.Text(int(l), int(r)))), store.StrVal(sent.Dict.Str(sent.EntType[k])),
				store.IntVal(int64(sid)), store.IntVal(int64(l)), store.IntVal(int64(r)),
			)
		}
	}
	if err := saveClosure(db, "PL", ix.PL); err != nil {
		return err
	}
	return saveClosure(db, "POS", ix.POS)
}

func saveClosure(db *store.DB, name string, h *Hierarchy) error {
	t := db.Create(name,
		store.Column{Name: "id", Type: store.ColInt},
		store.Column{Name: "label", Type: store.ColString},
		store.Column{Name: "depth", Type: store.ColInt},
		store.Column{Name: "aid", Type: store.ColInt},
		store.Column{Name: "alabel", Type: store.ColString},
		store.Column{Name: "adepth", Type: store.ColInt},
	)
	if err := t.CreateIndex("by_label", "label"); err != nil {
		return err
	}
	for id := int32(1); id < int32(len(h.Labels)); id++ {
		for a := id; a > 0; a = h.Parents[a] {
			t.MustInsert(
				store.IntVal(int64(id)), store.StrVal(h.Labels[id]), store.IntVal(int64(h.Depths[id])),
				store.IntVal(int64(a)), store.StrVal(h.Labels[a]), store.IntVal(int64(h.Depths[a])),
			)
		}
	}
	// Posting lists of hierarchy nodes are recoverable by joining the W
	// table on plid/posid (exactly how the paper retrieves them); no extra
	// storage is needed, which is why the KOKO footprint stays small.
	return nil
}
