package main

// layers.go is the only file of the benchmark that imports program packages.
// Everything else reaches the program through the small adapters below (or
// through kokod's flags and /v1 API), so a later change to a program surface
// breaks the benchmark in exactly one place. Only surfaces the roadmap's
// design diet keeps are used: Run(ctx, q, opts) + Collect, the block store
// format, kokod's core flags and the /v1 API.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
	"repro/internal/koko/lang"
	"repro/internal/koko/wal"
	"repro/internal/nlp"
	"repro/internal/server"
	"repro/koko"
	"repro/koko/remote"
)

// --- corpora (internal/corpus, internal/nlp) ---

// corpusData is one generated corpus: its parsed form, and the size of the
// text it was parsed from.
type corpusData struct {
	Name      string
	c         *index.Corpus
	TextBytes int64
}

func wrapCorpus(name string, c *index.Corpus) *corpusData {
	d := &corpusData{Name: name, c: c}
	for i := range c.Sentences {
		d.TextBytes += int64(len(c.Sentences[i].String())) + 1
	}
	return d
}

func genHappy(n int, seed int64) *corpusData {
	return wrapCorpus("happy", corpus.GenHappyDB(n, seed))
}

func genWiki(name string, n int, seed int64) *corpusData {
	c, _ := corpus.GenWikipedia(n, seed)
	return wrapCorpus(name, c)
}

// genPool generates the documents the writers ingest: n documents of group
// generated articles each, so that one ingest is an article-sized parse and
// index update rather than a round trip with two sentences in it.
func genPool(n, group int, seed int64) *corpusData {
	src, _ := corpus.GenWikipedia(n*group, seed)
	c := &index.Corpus{}
	for i := 0; i < n; i++ {
		lo, _ := src.DocSentences(i * group)
		_, hi := src.DocSentences((i+1)*group - 1)
		c.AppendDoc(ingestDocName(i), append([]nlp.Sentence(nil), src.Sentences[lo:hi]...))
	}
	return wrapCorpus("pool", c)
}

func (d *corpusData) NumDocs() int { return d.c.NumDocs() }

func (d *corpusData) docSentences(i int) []nlp.Sentence {
	lo, hi := d.c.DocSentences(i)
	return d.c.Sentences[lo:hi]
}

// DocText renders document i back to text, one sentence after another.
func (d *corpusData) DocText(i int) string {
	sents := d.docSentences(i)
	parts := make([]string, len(sents))
	for j := range sents {
		parts[j] = sents[j].String()
	}
	return strings.Join(parts, " ")
}

// TextHash fingerprints document names and sentence texts.
func (d *corpusData) TextHash() uint64 {
	h := fnv.New64a()
	for i := range d.c.Docs {
		io.WriteString(h, d.c.Docs[i].Name)
		io.WriteString(h, "\x00")
		io.WriteString(h, d.DocText(i))
		io.WriteString(h, "\n")
	}
	return h.Sum64()
}

// withIngested builds, from scratch, the corpus a server holds after the
// first n documents of pool were ingested into d as text: each is parsed
// again from its rendered text, exactly as the ingest endpoint does.
func (d *corpusData) withIngested(pool *corpusData, n int) *corpusData {
	c := &index.Corpus{}
	c.AppendDocsFrom(d.c, 0, d.c.NumDocs())
	p := nlp.NewPipeline()
	for i := 0; i < n; i++ {
		name := ingestDocName(i)
		c.AppendDoc(name, p.Annotate(0, name, pool.DocText(i), 0).Sentences)
	}
	return wrapCorpus(d.Name, c)
}

// annotate parses text with the NLP pipeline and returns the sentence count.
func annotate(text string) int {
	return len(nlp.NewPipeline().Annotate(0, "probe", text, 0).Sentences)
}

// --- query language and engines (koko, internal/koko/lang, engine, index) ---

// tuple is one result row, in the JSON shape /v1/query answers with.
type tuple struct {
	SentenceID int                `json:"sentence_id"`
	Document   int                `json:"document"`
	Values     []string           `json:"values"`
	Scores     map[string]float64 `json:"scores,omitempty"`
}

func tuplesOf(ts []koko.Tuple) []tuple {
	out := make([]tuple, len(ts))
	for i, t := range ts {
		out[i] = tuple{SentenceID: t.SentenceID, Document: t.Document, Values: t.Values, Scores: t.Scores}
	}
	return out
}

// runStats is what one evaluation reports besides its tuples.
type runStats struct {
	Tuples     []tuple
	Candidates int
	Matched    int
}

// parseQuery runs the lang layer alone (parse + canonicalize).
func parseQuery(text string) error {
	_, err := koko.ParseQuery(text)
	return err
}

// querier adapts any koko.Querier to "run this text, Workers=1".
type querier struct{ q koko.Querier }

func (r querier) run(ctx context.Context, text string) (runStats, error) {
	p, err := koko.ParseQuery(text)
	if err != nil {
		return runStats{}, err
	}
	seq, err := r.q.Run(ctx, p, &koko.QueryOptions{Workers: 1})
	if err != nil {
		return runStats{}, err
	}
	res, err := seq.Collect()
	if err != nil {
		return runStats{}, err
	}
	return runStats{Tuples: tuplesOf(res.Tuples), Candidates: res.Candidates, Matched: res.Matched}, nil
}

// newEngine builds the multi-index over d from scratch as one unsharded
// engine: the oracle every served result is compared against.
func newEngine(d *corpusData) querier {
	return querier{koko.NewEngine(koko.WrapCorpus(d.c), nil)}
}

// newSharded builds d as k doc-range shards in memory.
func newSharded(d *corpusData, k int) querier {
	return querier{koko.NewShardedEngine(koko.WrapCorpus(d.c), k, nil)}
}

// writeShardedStore builds d as k shards and persists them as a block-format
// manifest at path.
func writeShardedStore(d *corpusData, k int, path string) error {
	return koko.NewShardedEngine(koko.WrapCorpus(d.c), k, nil).SaveAs(path, koko.FormatBlock)
}

// heapEngine is the engine layer alone over a heap-resident index.
type heapEngine struct{ e *engine.Engine }

func newHeapEngine(d *corpusData) heapEngine {
	return heapEngine{engine.New(d.c, index.Build(d.c), embed.NewModel(), engine.Options{Workers: 1})}
}

func parseLang(text string) (*lang.Query, error) {
	q, err := lang.Parse(text)
	if err != nil {
		return nil, err
	}
	return q.Canonicalize(), nil
}

// prepared is a parsed query bound to a heap engine, so a probe can time
// evaluation without parsing.
type prepared struct {
	e *engine.Engine
	q *lang.Query
}

func (h heapEngine) prepare(text string) (prepared, error) {
	q, err := parseLang(text)
	return prepared{h.e, q}, err
}

// candidates runs normalize + DPLI only and returns the candidate count.
func (p prepared) candidates() (int, error) {
	sids, err := p.e.Candidates(p.q)
	return len(sids), err
}

// run evaluates through Stream + Collect with one worker.
func (p prepared) run() (tuples, candidates, matched int, err error) {
	st, err := p.e.Stream(p.q, engine.RunOptions{Workers: 1})
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := st.Collect()
	if err != nil {
		return 0, 0, 0, err
	}
	return len(res.Tuples), res.CandidateSentences, res.MatchedSentences, nil
}

// indexBuild runs index.Build over d.
func indexBuild(d *corpusData) { index.Build(d.c) }

// delta adapts index.Delta.
type delta struct{ d *index.Delta }

func newDelta() delta { return delta{index.NewDelta()} }

func (x delta) add(pool *corpusData, i int) {
	sents := append([]nlp.Sentence(nil), pool.docSentences(i)...)
	x.d.AddDocument(ingestDocName(i), sents)
}

func (x delta) seal() { x.d.Seal() }

// --- block store (internal/koko/index/blockstore) ---

// blockWriter returns a closure writing d to a block store; the index is
// built up front so the closure times the write alone.
func blockWriter(d *corpusData) func(path string) error {
	ix := index.Build(d.c)
	return func(path string) error { return blockstore.Write(path, d.c, ix) }
}

type blockReader struct{ r *blockstore.Reader }

func blockOpen(path string) (blockReader, error) {
	r, err := blockstore.Open(path)
	return blockReader{r}, err
}

func (b blockReader) close() error { return b.r.Close() }

// walk decodes every block of the posting lists of words and returns the
// number of postings seen.
func (b blockReader) walk(words []string) int {
	n := 0
	for _, w := range words {
		l := b.r.WordList(w)
		if l == nil {
			continue
		}
		for i := 0; i < l.NumBlocks(); i++ {
			n += len(l.Block(i))
		}
	}
	return n
}

// setBlockCacheBudget sets the process-wide decoded-block budget in bytes.
func setBlockCacheBudget(n int64) { blockstore.SetDefaultBudget(n) }

// distinctWords lists the distinct lower-cased tokens of d in first-seen
// order, at most limit of them.
func distinctWords(d *corpusData, limit int) []string {
	seen := map[string]bool{}
	var out []string
	for i := range d.c.Sentences {
		for _, t := range d.c.Sentences[i].Tokens {
			if !seen[t.Lower] {
				seen[t.Lower] = true
				out = append(out, t.Lower)
				if len(out) == limit {
					return out
				}
			}
		}
	}
	return out
}

// --- write-ahead log (internal/koko/wal) ---

type walLog struct{ l *wal.Log }

// walOpen opens (creating if absent) the log at path under the named fsync
// policy and returns it with the number of records replayed.
func walOpen(path, policy string) (walLog, int, error) {
	p, err := wal.ParseSyncPolicy(policy)
	if err != nil {
		return walLog{}, 0, err
	}
	replayed := 0
	l, err := wal.Open(path, p, func(*wal.Record) error { replayed++; return nil })
	return walLog{l}, replayed, err
}

func (w walLog) append(pool *corpusData, i int) error {
	_, err := w.l.Append(wal.Record{Kind: wal.KindAdd, Name: ingestDocName(i), Sents: pool.docSentences(i)})
	return err
}

func (w walLog) size() int64  { return w.l.Size() }
func (w walLog) close() error { return w.l.Close() }

// --- mutable and durable corpora (koko) ---

type mutable struct{ m *koko.Mutable }

// newMutable wraps a from-scratch engine over d as a memory-only mutable
// corpus.
func newMutable(d *corpusData) mutable {
	return mutable{koko.NewMutable(koko.NewEngine(koko.WrapCorpus(d.c), nil), nil)}
}

// openDurable opens the durable corpus in dir with the WAL unsynced; d seeds
// it when the directory is empty and may be nil when it is not.
func openDurable(d *corpusData, dir string) (mutable, error) {
	var seed koko.Querier
	if d != nil {
		seed = koko.NewEngine(koko.WrapCorpus(d.c), nil)
	}
	m, err := koko.OpenDurable(seed, koko.DurableConfig{Dir: dir, Sync: wal.SyncNone})
	return mutable{m}, err
}

func (m mutable) add(pool *corpusData, i int) error {
	_, err := m.m.AddParsedDocument(ingestDocName(i), pool.docSentences(i))
	return err
}

func (m mutable) put(pool *corpusData, i int) error {
	_, _, err := m.m.PutParsedDocument(ingestDocName(i), pool.docSentences(i))
	return err
}

func (m mutable) compact() error {
	_, err := m.m.Compact()
	return err
}

func (m mutable) snapshot() querier { return querier{m.m.Snapshot()} }
func (m mutable) numDocs() int      { return m.m.Snapshot().NumDocuments() }
func (m mutable) close() error      { return m.m.Close() }

// --- remote hop (koko/remote) ---

const shardEvalPath = remote.EvalPath

// shardEvalBody is the request a coordinator posts to a worker to evaluate
// one shard, buffered.
func shardEvalBody(corpusName string, shard int, text string) ([]byte, error) {
	p, err := koko.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	return json.Marshal(remote.ShardEvalRequest{Corpus: corpusName, Shard: shard, Query: p.Canonical(), Workers: 1})
}

// --- service (internal/server) ---

// serviceConfig mirrors the kokod flags the benchmark sets on its children.
type serviceConfig struct {
	StoreCacheBytes int64  // -store-cache-bytes (0 = default 256 MiB)
	DataDir         string // -data-dir
	MaxDeltaDocs    int    // -max-delta-docs
}

// service is an in-process kokod: the same Service the binary wraps, sized
// as the children are (-pool 2 -workers 1 -wal-sync none).
type service struct{ s *server.Service }

func newService(cfg serviceConfig) service {
	return service{server.NewService(server.Config{
		MaxConcurrent:   2,
		DefaultWorkers:  1,
		StoreCacheBytes: cfg.StoreCacheBytes,
		DataDir:         cfg.DataDir,
		MaxDeltaDocs:    cfg.MaxDeltaDocs,
		WALSync:         wal.SyncNone,
	})}
}

func (s service) load(name, path string) error { return s.s.Registry().LoadFile(name, path) }

func (s service) handler() http.Handler { return s.s.Handler() }
func (s service) close()                { s.s.Close() }

// connect turns the service into a coordinator over workers, with the
// children's remote flags: -replicas 2 -hedge-after -1s -health-interval 0.
func (s service) connect(ctx context.Context, workers []string) error {
	_, err := s.s.ConnectWorkers(ctx, server.RemoteConfig{
		Workers: workers, Replicas: 2, HedgeAfter: -time.Second,
	})
	return err
}

// queryRequest is the body of POST /v1/query as the benchmark sends it.
type queryRequest struct {
	Corpus  string `json:"corpus"`
	Query   string `json:"query"`
	NoCache bool   `json:"no_cache,omitempty"`
}

// query answers req in-process; resp is the value kokod would JSON-encode.
func (s service) query(ctx context.Context, req queryRequest) (resp any, tuples int, err error) {
	r, err := s.s.Query(ctx, server.QueryRequest{Corpus: req.Corpus, Query: req.Query, NoCache: req.NoCache})
	if err != nil {
		return nil, 0, err
	}
	return r, len(r.Tuples), nil
}

// stream answers req as a sequence of NDJSON line values; isTuple marks
// tuple lines.
func (s service) stream(ctx context.Context, req queryRequest, emit func(line any, isTuple bool) error) error {
	return s.s.QueryStream(ctx, server.QueryRequest{Corpus: req.Corpus, Query: req.Query, NoCache: req.NoCache},
		func(ev server.StreamEvent) error { return emit(ev, ev.Tuple != nil) })
}

// ingestRequest is the body of POST /v1/corpora/{name}/documents.
type ingestRequest struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

func (s service) ingest(corpusName string, req ingestRequest) (any, error) {
	info, doc, updated, err := s.s.Ingest(corpusName, req.Name, req.Text)
	if err != nil {
		return nil, err
	}
	return server.IngestResponse{Corpus: info, Document: doc, Updated: updated}, nil
}

func (s service) compact(corpusName string) error {
	_, _, err := s.s.Compact(corpusName)
	return err
}

// counters is the subset of GET /v1/metrics the benchmark reads; the JSON
// names are kokod's.
type counters struct {
	QueriesTotal      int64 `json:"queries_total"`
	QueryErrors       int64 `json:"query_errors"`
	CacheHits         int64 `json:"cache_hits"`
	IngestsTotal      int64 `json:"ingests_total"`
	CompactionsTotal  int64 `json:"compactions_total"`
	CompactionErrors  int64 `json:"compaction_errors"`
	RemoteAttempts    int64 `json:"remote_attempts"`
	RemoteRetries     int64 `json:"remote_retries"`
	RemoteHedgesFired int64 `json:"remote_hedges_fired"`
	ShardEvalsServed  int64 `json:"shard_evals_served"`
	StoreCacheBytes   int64 `json:"store_cache_bytes"`
	StoreCacheHits    int64 `json:"store_cache_hits"`
	StoreCacheMisses  int64 `json:"store_cache_misses"`
	StoreBlockDecodes int64 `json:"store_block_decodes"`
	StoreEvictions    int64 `json:"store_evictions"`
}

func (s service) counters() (counters, error) {
	var c counters
	b, err := json.Marshal(s.s.Metrics())
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("metrics snapshot: %w", err)
	}
	return c, nil
}
