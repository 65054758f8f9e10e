package index

import (
	"fmt"

	"repro/internal/nlp"
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
