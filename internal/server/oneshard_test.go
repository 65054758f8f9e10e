package server

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
	"repro/koko"
)

// TestOneShardSetDifferential: every way of building a local engine — one
// shard built or opened, several shards built, re-sharded or opened, and a
// mutable snapshot whose delta and tombstones leave the same live
// documents — answers the demo queries (and a scored query) over the demo
// and cafes corpora with byte-identical tuples, scores and evidence,
// explain on and off. One shard saves as a plain block store, two as a
// manifest, and a corpus refuses a seed that is not a local engine.
func TestOneShardSetDifferential(t *testing.T) {
	queries := []string{DemoQueries["demo-cafes"], DemoQueries["demo-food"],
		`extract x:Entity from "blogs" if () satisfying x
			(str(x) contains "Cafe" {0.6}) or (x [["serves coffee"]] {0.3}) or (x [["hired barista"]] {0.3})
			with threshold 0.5`}
	corpora := map[string]*index.Corpus{"cafes": corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus}
	for _, d := range demoDocs {
		corpora[d.name] = index.NewCorpus(d.docs, d.texts)
	}
	// junk matches every query, so its tuples must be masked once deleted.
	junk := index.NewCorpus(nil, []string{"Cafe Ladro hired a barista and ate a pie."})
	junkSents := junk.Sentences[:junk.Docs[0].NumSents]
	dir := t.TempDir()
	tuples, evidence := 0, 0
	for name, ic := range corpora {
		c := koko.WrapCorpus(ic)
		one := filepath.Join(dir, name+"-1.koko")
		if err := koko.NewEngine(c, nil).Save(one); err != nil {
			t.Fatal(err)
		}
		if !blockstore.IsBlockStore(one) {
			t.Fatalf("%s: a one-shard Save is not a plain block store", name)
		}
		if _, err := os.Stat(one + ".shard0"); !os.IsNotExist(err) {
			t.Fatalf("%s: a one-shard Save left a shard file beside the store (%v)", name, err)
		}
		two := filepath.Join(dir, name+"-2.koko")
		if err := koko.NewShardedEngine(c, 2, nil).Save(two); err != nil {
			t.Fatal(err)
		}
		if ic.NumDocs() >= 2 && blockstore.IsBlockStore(two) {
			t.Fatalf("%s: a two-shard Save wrote a plain store, not a manifest", name)
		}
		open := func(path string, k int) koko.Querier {
			e, err := koko.OpenWithShards(path, nil, k)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}

		// The snapshot's base is a junk document followed by the first half
		// of the corpus; the rest arrives through the delta, with one more
		// junk document; both junk documents are then deleted.
		half := ic.NumDocs() / 2
		base := &index.Corpus{}
		base.AppendDoc("junk-base", junkSents)
		base.AppendDocsFrom(ic, 0, half)
		m, err := koko.OpenMutable(koko.NewShardedEngine(koko.WrapCorpus(base), 2, nil), koko.MutableConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for d := half; d < ic.NumDocs(); d++ {
			first, end := ic.DocSentences(d)
			if _, err := m.AddParsedDocument(ic.Docs[d].Name, ic.Sentences[first:end]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.AddParsedDocument("junk-delta", junkSents); err != nil {
			t.Fatal(err)
		}
		for _, doc := range []string{"junk-base", "junk-delta"} {
			if _, _, err := m.DeleteDocument(doc); err != nil {
				t.Fatal(err)
			}
		}
		snap := m.Snapshot()
		if snap.DeltaDocs() == 0 || snap.Tombstones() != 2 {
			t.Fatalf("%s: snapshot carries %d delta documents and %d tombstones", name, snap.DeltaDocs(), snap.Tombstones())
		}

		ref := koko.NewEngine(c, nil)
		variants := []struct {
			name string
			q    koko.Querier
		}{
			{"NewShardedEngine(c, 1)", koko.NewShardedEngine(c, 1, nil)},
			{"NewShardedEngine(c, 3)", koko.NewShardedEngine(c, 3, nil)},
			{"Open(one shard)", open(one, 1)},
			{"OpenWithShards(plain, 3)", open(one, 3)},
			{"Open(two shards)", open(two, 1)},
			{"snapshot", snap},
		}
		for _, src := range queries {
			for _, explain := range []bool{false, true} {
				qo := &koko.QueryOptions{Explain: explain}
				want := answerBytes(t, ref, src, qo)
				var got []koko.Tuple
				if err := json.Unmarshal(want, &got); err != nil {
					t.Fatal(err)
				}
				tuples += len(got)
				for _, tp := range got {
					evidence += len(tp.Evidence)
				}
				for _, v := range variants {
					if g := answerBytes(t, v.q, src, qo); !bytes.Equal(g, want) {
						t.Fatalf("%s, %s, explain %t: answer differs from NewEngine's\n got %s\nwant %s", name, v.name, explain, g, want)
					}
				}
			}
		}
	}
	if tuples == 0 || evidence == 0 {
		t.Fatalf("the queries matched %d tuples with %d evidence rows; the differential is vacuous", tuples, evidence)
	}

	nonLocal := struct{ koko.Querier }{koko.NewEngine(koko.WrapCorpus(junk), nil)}
	if m, err := koko.OpenMutable(nonLocal, koko.MutableConfig{}); err == nil {
		m.Close()
		t.Fatal("OpenMutable accepted a seed that is not a local engine")
	}
}

// answerBytes runs src on q and encodes its tuples — values, scores and
// evidence included.
func answerBytes(t *testing.T, q koko.Querier, src string, qo *koko.QueryOptions) []byte {
	t.Helper()
	p, err := koko.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := q.Run(context.Background(), p, qo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := seq.Collect()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
