package engine_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
	"repro/internal/koko/lang"
)

// TestTypedEntityQueriesAgree: queries that bind typed entity variables
// (Person, Date, Entity, GPE, and the examples' x:Entity queries) answer
// with the same tuple bytes from a heap index, from the same corpus
// reopened from a block store, and from RunNaive, which prunes nothing.
// Every run of a corpus goes at once over shared engines: under -race this
// shows that nothing downstream of DPLI writes into the index's entity
// counts, which a query's candidate set may alias.
func TestTypedEntityQueriesAgree(t *testing.T) {
	wiki, _ := corpus.GenWikipedia(300, 7)
	for _, tc := range []struct {
		name    string
		c       *index.Corpus
		opts    engine.Options
		queries []string
	}{
		{"wiki", wiki, engine.Options{}, []string{
			`extract a:Person, b:Date from wiki.article if (/ROOT:{v = verb}) satisfying v (str(v) ~ "born" {1})`,
			`extract a:Person, b:Str from wiki.article if (/ROOT:{ v = //"called", p = v/propn, b = p.subtree, c = a + ^ + v + ^ + b })`,
			`extract c:Entity from wiki.article if (/ROOT:{ v = //verb, o = v//pobj[text="chocolate"], s = v/nsubj } (s) in (c)) satisfying v (str(v) ~ "is" {1})`,
			`extract p:Person, g:GPE from wiki.article if (/ROOT:{ v = //verb, s = v/nsubj } (s) in (p))`,
			`extract d:Date from wiki.article if ()`,
		}},
		{"cafes", index.NewCorpus([]string{"blog-post"}, []string{
			"Gravity Beans opened downtown last month. " +
				"The owners say Gravity Beans serves up delicious cappuccinos every morning. " +
				"Gravity Beans recently hired the star barista from Portland. " +
				"We also stopped by Ritual Works, a cafe near the old mill. " +
				"The shop pulls shots on a La Marzocco machine. " +
				"Portland produces and sells the best coffee.",
		}), engine.Options{Dicts: map[string]map[string]bool{"Location": {"portland": true, "seattle": true}}}, []string{
			`extract x:Entity from "blog" if ()
			satisfying x (str(x) contains "Cafe" {1}) or (x ", a cafe" {1}) or
			(x [["serves coffee"]] {0.4}) or (x [["hired barista"]] {0.4})
			with threshold 0.35
			excluding (str(x) matches "[Ll]a Marzocco") or (str(x) in dict("Location"))`,
		}},
		{"tweets", index.NewCorpus(nil, []string{
			"River Tigers vs Bay Sharks tonight at 7 pm.",
			"go North Falcons beat the Iron Wolves.",
			"Hill Rovers to host the soccer final this weekend.",
			"we are at Riverside Stadium for the show.",
			"went to Harbor Museum with the kids today.",
			"meet me at Union Station at 8 pm.",
		}), engine.Options{}, []string{
			`extract x:Entity from "tweets" if ()
			satisfying x (x [["to host"]] {0.9}) or (x "vs" {0.9}) or ("vs" x {0.9}) or (x [["soccer"]] {0.9}) or ("go" x {0.9})
			with threshold 0.5`,
			`extract x:Entity from "tweets" if ()
			satisfying x ("at" x {1}) or ([["went to"]] x {0.8}) or ([["go to"]] x {0.8})
			with threshold 0.5
			excluding (str(x) contains "pm") or (str(x) mentions "@")`,
		}},
		{"food", index.NewCorpus(nil, []string{
			"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
			"Anna ate some delicious cheesecake that she bought at a grocery store.",
		}), engine.Options{}, []string{
			`extract e:Entity, d:Str from input.txt if
			(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`,
			`extract g:GPE from input.txt if ()`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heapIx := index.Build(tc.c)
			path := filepath.Join(t.TempDir(), tc.name+".koko")
			if err := blockstore.Write(path, tc.c, heapIx); err != nil {
				t.Fatal(err)
			}
			r, err := blockstore.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			heap := engine.New(tc.c, heapIx, embed.NewModel(), tc.opts)
			store := engine.NewColumns(r.Columns(), r.NewIndex(), embed.NewModel(), tc.opts)
			runs := []struct {
				name string
				run  func(*lang.Query) (*engine.Result, error)
			}{{"heap", heap.Run}, {"store", store.Run}, {"naive", heap.RunNaive}, {"store naive", store.RunNaive}}

			const rounds = 2
			got := make([][][]byte, len(tc.queries))
			var wg sync.WaitGroup
			for qi, src := range tc.queries {
				q := lang.MustParse(src)
				got[qi] = make([][]byte, rounds*len(runs))
				for k := range got[qi] {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := runs[k%len(runs)].run(q)
						if err != nil {
							t.Errorf("%s query %d: %v", runs[k%len(runs)].name, qi, err)
							return
						}
						if got[qi][k], err = json.Marshal(res.Tuples); err != nil {
							t.Error(err)
						}
					}()
				}
			}
			wg.Wait()
			for qi, src := range tc.queries {
				want := got[qi][0]
				if bytes.Equal(want, []byte("[]")) || bytes.Equal(want, []byte("null")) {
					t.Errorf("query %d matched nothing on the heap index; the check is vacuous:\n%s", qi, src)
				}
				for k, b := range got[qi] {
					if !bytes.Equal(b, want) {
						t.Errorf("query %d: %s answered\n%s\nheap answered\n%s", qi, runs[k%len(runs)].name, b, want)
					}
				}
			}
		})
	}
}
