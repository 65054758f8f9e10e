package index

import (
	"fmt"
	"strings"

	"repro/internal/nlp"
	"repro/internal/store"
)

// DocMeta locates one document's sentences within a corpus.
type DocMeta struct {
	Name     string
	FirstSID int
	NumSents int
}

// Corpus is a parsed text corpus with corpus-global sentence ids: sentence
// s has Sentences[s].ID == s. It is the parser's output form; indexing and
// query evaluation run over its Columns (ColumnsOf).
type Corpus struct {
	Sentences []nlp.Sentence
	Docs      []DocMeta
	DocOfSent []int // sid -> doc index
}

// NewCorpus assembles a corpus from raw document texts, running the NLP
// pipeline over each.
func NewCorpus(names []string, texts []string) *Corpus {
	c := &Corpus{}
	p := nlp.NewPipeline()
	for i, text := range texts {
		name := fmt.Sprintf("doc%d", i)
		if i < len(names) {
			name = names[i]
		}
		doc := p.Annotate(i, name, text, len(c.Sentences))
		c.AppendDoc(name, doc.Sentences)
	}
	return c
}

// AppendDoc adds a parsed document's sentences, renumbering them to global
// sentence ids.
func (c *Corpus) AppendDoc(name string, sents []nlp.Sentence) {
	first := len(c.Sentences)
	docIdx := len(c.Docs)
	for i := range sents {
		sents[i].ID = first + i
		c.Sentences = append(c.Sentences, sents[i])
		c.DocOfSent = append(c.DocOfSent, docIdx)
	}
	c.Docs = append(c.Docs, DocMeta{Name: name, FirstSID: first, NumSents: len(sents)})
}

// AppendDocsFrom copies documents [lo, hi) of src onto the end of c,
// renumbering them to c's global ids. Sentence structs are copied before
// renumbering (token and entity slices are shared read-only), so src is
// never mutated. Columns.AppendDocsFrom is the same step over columns.
func (c *Corpus) AppendDocsFrom(src *Corpus, lo, hi int) {
	for d := lo; d < hi; d++ {
		first, end := src.DocSentences(d)
		sents := make([]nlp.Sentence, end-first)
		copy(sents, src.Sentences[first:end])
		c.AppendDoc(src.Docs[d].Name, sents)
	}
}

// NumSentences returns the sentence count.
func (c *Corpus) NumSentences() int { return len(c.Sentences) }

// NumDocs returns the document count.
func (c *Corpus) NumDocs() int { return len(c.Docs) }

// Sentence returns the sentence with global id sid.
func (c *Corpus) Sentence(sid int) *nlp.Sentence { return &c.Sentences[sid] }

// DocSentences returns the sentence-id range [first, first+n) of document d.
func (c *Corpus) DocSentences(d int) (int, int) {
	m := c.Docs[d]
	return m.FirstSID, m.FirstSID + m.NumSents
}

// --- persistence of parsed text (the paper stores parsed trees in the DBMS
// and loads candidate articles back during evaluation — the LoadArticle
// phase of Table 2) ---

// SaveParsed writes the parsed corpus into db as tables D (documents),
// S (sentences), and T (tokens).
func (c *Corpus) SaveParsed(db *store.DB) error {
	d := db.Create("D",
		store.Column{Name: "name", Type: store.ColString},
		store.Column{Name: "first_sid", Type: store.ColInt},
		store.Column{Name: "num_sents", Type: store.ColInt},
	)
	for _, m := range c.Docs {
		d.MustInsert(store.StrVal(m.Name), store.IntVal(int64(m.FirstSID)), store.IntVal(int64(m.NumSents)))
	}
	tt := db.Create("T",
		store.Column{Name: "sid", Type: store.ColInt},
		store.Column{Name: "tid", Type: store.ColInt},
		store.Column{Name: "text", Type: store.ColString},
		store.Column{Name: "pos", Type: store.ColString},
		store.Column{Name: "label", Type: store.ColString},
		store.Column{Name: "head", Type: store.ColInt},
		store.Column{Name: "etype", Type: store.ColString},
		store.Column{Name: "el", Type: store.ColInt},
		store.Column{Name: "er", Type: store.ColInt},
	)
	if err := tt.CreateIndex("by_sid", "sid"); err != nil {
		return err
	}
	for sid := range c.Sentences {
		s := &c.Sentences[sid]
		for i := range s.Tokens {
			tok := &s.Tokens[i]
			etype, el, er := "", -1, -1
			if e := s.EntityAt(i); e != nil {
				etype, el, er = e.Type, e.L, e.R
			}
			tt.MustInsert(
				store.IntVal(int64(sid)), store.IntVal(int64(i)),
				store.StrVal(tok.Text), store.StrVal(tok.POS),
				store.StrVal(tok.Label), store.IntVal(int64(tok.Head)),
				store.StrVal(etype), store.IntVal(int64(el)), store.IntVal(int64(er)),
			)
		}
	}
	return nil
}

// LoadSentence reconstructs one parsed sentence from the T table. This is
// the per-sentence unit of the LoadArticle phase: the engine fetches only
// the articles that survived index pruning.
func LoadSentence(db *store.DB, sid int) (*nlp.Sentence, error) {
	tt := db.Table("T")
	if tt == nil {
		return nil, fmt.Errorf("index: no T table")
	}
	s := &nlp.Sentence{ID: sid}
	type entSpan struct {
		typ  string
		l, r int
	}
	var ents []entSpan
	err := tt.LookupPrefix("by_sid", func(rid int, row []store.Value) bool {
		tok := nlp.Token{
			ID:       int(row[1].I),
			Text:     row[2].S,
			Lower:    strings.ToLower(row[2].S),
			POS:      row[3].S,
			Label:    row[4].S,
			Head:     int(row[5].I),
			EntityID: -1,
		}
		s.Tokens = append(s.Tokens, tok)
		if row[6].S != "" && int(row[7].I) == tok.ID {
			ents = append(ents, entSpan{typ: row[6].S, l: int(row[7].I), r: int(row[8].I)})
		}
		return true
	}, store.IntVal(int64(sid)))
	if err != nil {
		return nil, err
	}
	if len(s.Tokens) == 0 {
		return nil, fmt.Errorf("index: sentence %d not found", sid)
	}
	// Rebuild derived geometry and entity links.
	s.RecomputeDerived()
	for _, e := range ents {
		s.Entities = append(s.Entities, nlp.Entity{Type: e.typ, L: e.l, R: e.r, Text: s.Text(e.l, e.r)})
		id := len(s.Entities) - 1
		for t := e.l; t <= e.r && t < len(s.Tokens); t++ {
			s.Tokens[t].EntityID = id
		}
	}
	return s, nil
}
