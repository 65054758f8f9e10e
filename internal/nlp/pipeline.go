package nlp

// Pipeline is the document annotator: it mirrors the paper's preprocessing
// step ("we first process the document with a natural language parser"),
// transforming raw text into sentences of annotated tokens.
type Pipeline struct{}

// NewPipeline returns the default deterministic pipeline.
func NewPipeline() *Pipeline { return &Pipeline{} }

// Annotate parses a whole document. Sentence IDs are document-local,
// starting at firstSID, so a corpus can assign corpus-global ids.
func (p *Pipeline) Annotate(docID int, name, text string, firstSID int) *Document {
	raw := SplitSentences(text)
	doc := &Document{ID: docID, Name: name, Sentences: make([]Sentence, 0, len(raw))}
	for i, r := range raw {
		s := AnnotateSentence(firstSID+i, r)
		if len(s.Tokens) == 0 {
			continue
		}
		doc.Sentences = append(doc.Sentences, s)
	}
	return doc
}
