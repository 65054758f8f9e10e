package index

import (
	"fmt"
	"testing"
)

func testShardCorpus(t *testing.T, docs int) *Corpus {
	t.Helper()
	var texts []string
	for i := 0; i < docs; i++ {
		s := fmt.Sprintf("Cafe Number%d serves espresso daily.", i)
		// Vary document length so token balancing has something to do.
		for j := 0; j < i%4; j++ {
			s += fmt.Sprintf(" The barista%d pulled another shot.", j)
		}
		texts = append(texts, s)
	}
	return NewCorpus(nil, texts)
}

// TestPartitionDocsCoverage: shards tile the document and sentence spaces
// exactly, in order, with no gaps or overlaps, for a range of k values.
func TestPartitionDocsCoverage(t *testing.T) {
	c := testShardCorpus(t, 13)
	for _, k := range []int{1, 2, 3, 5, 7, 13, 50} {
		specs := PartitionDocs(ColumnsOf(c), k)
		wantShards := k
		if wantShards > c.NumDocs() {
			wantShards = c.NumDocs()
		}
		if wantShards < 1 {
			wantShards = 1
		}
		if len(specs) != wantShards {
			t.Fatalf("k=%d: got %d shards, want %d", k, len(specs), wantShards)
		}
		doc, sid, tokens := 0, 0, 0
		for i, sp := range specs {
			if sp.LoDoc != doc {
				t.Fatalf("k=%d shard %d: LoDoc=%d, want %d", k, i, sp.LoDoc, doc)
			}
			if sp.HiDoc <= sp.LoDoc {
				t.Fatalf("k=%d shard %d: empty doc range %+v", k, i, sp)
			}
			if sp.FirstSID != sid {
				t.Fatalf("k=%d shard %d: FirstSID=%d, want %d", k, i, sp.FirstSID, sid)
			}
			doc = sp.HiDoc
			sid += sp.NumSents
			tokens += sp.Tokens
		}
		if doc != c.NumDocs() || sid != c.NumSentences() {
			t.Fatalf("k=%d: shards cover %d docs / %d sents, want %d / %d",
				k, doc, sid, c.NumDocs(), c.NumSentences())
		}
		total := 0
		for s := range c.Sentences {
			total += len(c.Sentences[s].Tokens)
		}
		if tokens != total {
			t.Fatalf("k=%d: shard token weights sum to %d, want %d", k, tokens, total)
		}
	}
}

// TestPartitionDocsBalance: with many uniform documents, token weights per
// shard stay close to ideal (the partitioner is token-balanced, not just
// doc-count-balanced: a corpus with one huge doc can't balance perfectly,
// but a uniform one must).
func TestPartitionDocsBalance(t *testing.T) {
	var texts []string
	for i := 0; i < 40; i++ {
		texts = append(texts, "Anna ate some delicious cheesecake at the store.")
	}
	c := NewCorpus(nil, texts)
	total := 0
	for s := range c.Sentences {
		total += len(c.Sentences[s].Tokens)
	}
	for _, k := range []int{2, 4, 5, 8} {
		specs := PartitionDocs(ColumnsOf(c), k)
		ideal := float64(total) / float64(k)
		for i, sp := range specs {
			if f := float64(sp.Tokens); f < 0.5*ideal || f > 1.5*ideal {
				t.Errorf("k=%d shard %d: tokens=%d, ideal=%.0f (out of ±50%%)", k, i, sp.Tokens, ideal)
			}
		}
	}
}

// TestPartitionDocsSkewed: one giant document must not drag neighbours into
// its shard.
func TestPartitionDocsSkewed(t *testing.T) {
	big := ""
	for i := 0; i < 30; i++ {
		big += "The barista pulled another perfect shot of espresso for the regulars. "
	}
	texts := []string{big, "Tiny doc one.", "Tiny doc two.", "Tiny doc three."}
	c := NewCorpus(nil, texts)
	specs := PartitionDocs(ColumnsOf(c), 2)
	if len(specs) != 2 {
		t.Fatalf("got %d shards, want 2", len(specs))
	}
	if specs[0].HiDoc != 1 {
		t.Errorf("giant doc should occupy shard 0 alone: %+v", specs)
	}
}

// TestShardCorpusIsolation: materializing shards copies the parent's
// document range into shard-local ids; the parent columns are only read,
// and shard content matches the parent slice exactly.
func TestShardCorpusIsolation(t *testing.T) {
	c := testShardCorpus(t, 9)
	cols := ColumnsOf(c)
	specs := PartitionDocs(cols, 3)
	for _, sp := range specs {
		sc := ShardCorpus(cols, sp)
		if sc.NumDocs() != sp.NumDocs() || sc.NumSentences() != sp.NumSents {
			t.Fatalf("shard corpus %d docs/%d sents, spec %+v", sc.NumDocs(), sc.NumSentences(), sp)
		}
		for s := 0; s < sc.NumSentences(); s++ {
			got, want := sc.Sent(s), c.Sentence(sp.FirstSID+s)
			if got.String() != want.String() || got.ID != s {
				t.Fatalf("shard sentence %d (id %d) = %q, want %q", s, got.ID, got.String(), want.String())
			}
		}
		for d := 0; d < sc.NumDocs(); d++ {
			if sc.Docs[d].Name != c.Docs[sp.LoDoc+d].Name {
				t.Fatalf("shard doc %d name %q, want %q", d, sc.Docs[d].Name, c.Docs[sp.LoDoc+d].Name)
			}
		}
	}
	for i := range c.Sentences {
		if s := cols.Sent(i); s.String() != c.Sentences[i].String() {
			t.Fatalf("parent sentence %d changed: %q", i, s.String())
		}
	}
}
