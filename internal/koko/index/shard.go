package index

// Sharding: a corpus is split on document boundaries into contiguous
// doc-range shards. KOKO evaluates queries document-by-document (evidence
// aggregation never crosses documents), so each shard can be indexed and
// queried as a fully independent corpus and the per-shard results
// recombined exactly by rebasing shard-local document and sentence ids.

// ShardSpec describes one shard: the global document range [LoDoc, HiDoc)
// it covers and the offsets needed to rebase shard-local ids back to
// corpus-global ones.
type ShardSpec struct {
	// LoDoc / HiDoc bound the global document range (HiDoc exclusive).
	LoDoc, HiDoc int
	// FirstSID is the global sentence id of the shard's first sentence;
	// shard-local sentence s corresponds to global sentence FirstSID+s.
	FirstSID int
	// NumSents / Tokens report the shard's size (Tokens is the balance
	// weight the partitioner optimizes).
	NumSents int
	Tokens   int
}

// NumDocs returns the number of documents the shard covers.
func (sp ShardSpec) NumDocs() int { return sp.HiDoc - sp.LoDoc }

// PartitionDocs splits c's documents into at most k contiguous doc ranges,
// balancing total token count per shard rather than document count: one
// giant article should not ride with a full share of small ones. Every
// returned shard covers at least one document, so fewer than k shards come
// back when the corpus has fewer than k documents. k <= 1 yields a single
// shard covering everything.
func PartitionDocs(c *Columns, k int) []ShardSpec {
	nd := c.NumDocs()
	if nd == 0 {
		return []ShardSpec{{}}
	}
	if k > nd {
		k = nd
	}
	if k < 1 {
		k = 1
	}
	docTokens := make([]int, nd)
	total := 0
	for d := 0; d < nd; d++ {
		first, end := c.DocSentences(d)
		w := int(c.TokOff[end] - c.TokOff[first])
		docTokens[d] = w
		total += w
	}
	specs := make([]ShardSpec, 0, k)
	remaining := total
	lo := 0
	for i := 0; i < k; i++ {
		shardsLeft := k - i
		// maxHi leaves at least one document for every shard still to cut.
		maxHi := nd - (shardsLeft - 1)
		target := float64(remaining) / float64(shardsLeft)
		acc := 0
		hi := lo
		for hi < maxHi {
			w := docTokens[hi]
			// Take the next document unless stopping here is closer to the
			// (re-balanced) per-shard target than taking it would be.
			if hi > lo && float64(acc)+float64(w)/2 > target {
				break
			}
			acc += w
			hi++
		}
		if hi == lo { // always make progress
			acc = docTokens[hi]
			hi++
		}
		first := c.Docs[lo].FirstSID
		last := c.Docs[hi-1]
		specs = append(specs, ShardSpec{
			LoDoc: lo, HiDoc: hi,
			FirstSID: first,
			NumSents: last.FirstSID + last.NumSents - first,
			Tokens:   acc,
		})
		remaining -= acc
		lo = hi
	}
	return specs
}

// ShardCorpus materializes spec's document range as self-contained columns
// with shard-local document and sentence ids (both starting at 0) and the
// shard's own dictionary. c is only read.
func ShardCorpus(c *Columns, spec ShardSpec) *Columns {
	out := NewColumns()
	out.AppendDocsFrom(c, spec.LoDoc, spec.HiDoc)
	return out
}
