package main

import (
	"context"
	"fmt"
	"time"
)

// sizes fixes the input sizes of a run. fullSizes is what BENCHMARK.json
// measures; the smoke test shrinks everything.
type sizes struct {
	HappyDocs  int   // happy corpus: one sentence per document
	WikiDocs   int   // wiki corpus: ~2.4 sentences per article
	PoolDocs   int   // documents available for ingestion
	PoolGroup  int   // generated articles per ingested document
	SpillBytes int64 // -store-cache-bytes of query_spill
	// The writer of ingest_while_query posts BurstDocs documents back to
	// back every BurstEvery: the corpus grows on the same schedule on every
	// commit, so reader latencies stay comparable. Unpaced, kokod takes
	// 500-1000 documents a second and the corpus would grow many times over
	// within a run.
	BurstDocs  int
	BurstEvery time.Duration
	MaxDelta   int // -max-delta-docs of ingest_while_query
}

var fullSizes = sizes{HappyDocs: 10000, WikiDocs: 6000, PoolDocs: 800, PoolGroup: 8, SpillBytes: 1 << 20,
	BurstDocs: 12, BurstEvery: 500 * time.Millisecond, MaxDelta: 32}

// workloadSpec is one row of the workload table.
type workloadSpec struct {
	Name        string
	Why         string
	Shards      int  // block shards per corpus
	Spill       bool // serve with the small block cache
	Durable     bool // -data-dir, a writer beside the reader
	Distributed bool // coordinator + 2 workers
}

var workloads = []workloadSpec{
	{Name: "query_warm", Shards: 2,
		Why: "working set fits the block cache: engine and HTTP encode do the work, block decode none (asserted decodes = 0)"},
	{Name: "query_spill", Shards: 2, Spill: true,
		Why: "same ops, 1 MiB block cache far below the decoded working set: adds the decode and CLOCK eviction path (asserted)"},
	{Name: "ingest_while_query", Shards: 2, Durable: true,
		Why: "a writer ingests durably beside one reader: parse, delta seal, WAL and compaction contend with queries; kill -9 recovery checked"},
	{Name: "scatter_gather", Shards: 4, Distributed: true,
		Why: "coordinator + 2 workers, same ops: adds the shard-eval wire hop and ordered merge (asserted 4 attempts/query, 0 retries)"},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is where and how a run executes.
type env struct {
	Kokod          string // path of the kokod binary
	Scratch        string // root for scratch directories
	Sizes          sizes
	SetupReps      int   // set-ups per run; setup_s is their median
	MinCompactions int64 // compactions ingest_while_query must complete in its timed phase
}

// inputs is everything derived from the seed.
type inputs struct {
	happy, wiki, pool *corpusData
	cycle             []op
}

func genInputs(sz sizes, seed int64) *inputs {
	return &inputs{
		happy: genHappy(sz.HappyDocs, seed),
		wiki:  genWiki("wiki", sz.WikiDocs, seed),
		pool:  genPool(sz.PoolDocs, sz.PoolGroup, seed+7919),
		cycle: buildCycle(seed),
	}
}

// oracle holds the from-scratch answers the served ones are checked against.
type oracle struct {
	want map[string][]tuple // by query id, over the corpora as generated
	// For the mutating wiki corpus: answers over wiki + the whole pool, and
	// cum[id][k] = how many of them lie in the first WikiDocs+k documents.
	// Tuples come out in document order, so the answer after k ingests is
	// exactly the first cum[id][k] tuples.
	final map[string][]tuple
	cum   map[string][]int
}

func buildOracle(in *inputs, withIngest bool) (*oracle, error) {
	o := &oracle{want: map[string][]tuple{}}
	ctx := context.Background()
	engines := map[string]querier{"happy": newEngine(in.happy), "wiki": newEngine(in.wiki)}
	for i := range queries {
		q := &queries[i]
		rs, err := engines[q.Corpus].run(ctx, q.Text)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q.ID, err)
		}
		if len(rs.Tuples) == 0 {
			return nil, fmt.Errorf("oracle %s: no tuples; the workload would check nothing", q.ID)
		}
		o.want[q.ID] = rs.Tuples
	}
	if !withIngest {
		return o, nil
	}
	o.final, o.cum = map[string][]tuple{}, map[string][]int{}
	n := in.pool.NumDocs()
	full := newEngine(in.wiki.withIngested(in.pool, n))
	base := in.wiki.NumDocs()
	for i := range queries {
		q := &queries[i]
		if q.Corpus != "wiki" {
			continue
		}
		rs, err := full.run(ctx, q.Text)
		if err != nil {
			return nil, fmt.Errorf("oracle %s after ingest: %w", q.ID, err)
		}
		cum := make([]int, n+1)
		j := 0
		for k := 0; k <= n; k++ {
			for j < len(rs.Tuples) && rs.Tuples[j].Document < base+k {
				j++
			}
			cum[k] = j
		}
		if d := sameTuples(rs.Tuples[:cum[0]], o.want[q.ID]); d != "" {
			return nil, fmt.Errorf("oracle %s: ingesting changed the answer over the base documents: %s", q.ID, d)
		}
		o.final[q.ID], o.cum[q.ID] = rs.Tuples, cum
	}
	return o, nil
}
