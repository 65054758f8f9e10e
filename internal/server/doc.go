// Package server is the service layer of the KOKO reproduction: it turns
// the one-shot library engine into a long-running, concurrent query service
// (the deployment shape the paper assumes for "an engine behind real
// extraction workloads").
//
// The package is organized in three layers:
//
//   - Registry: a name → corpus map. Each local entry is one koko.Mutable —
//     loaded from a persisted .koko store (hot-reloadable) or registered in
//     memory — that owns its whole lifecycle (ingest, deletes, compaction
//     and when to run it, durability) and publishes its current immutable
//     koko.Snapshot; remote entries are coordinator-side routing engines.
//     The registry mirrors nothing: an entry's info and generation are
//     derived from the corpus's snapshot whenever asked, so readers never
//     wait on a writer. The generation is the snapshot's seal sequence plus
//     a per-entry offset above every generation served under a removed or
//     replaced entry — not a registry-wide counter — so it strictly
//     increases under a name and agrees across nodes that loaded the same
//     corpora. Downstream caches key on it; readers holding an older
//     snapshot are never disturbed.
//
//   - Service: the execution path shared by the HTTP server, the CLI, and
//     the benchmarks. It canonicalizes queries, consults a normalized-query
//     LRU result cache (keyed corpus × generation × canonical text, so any
//     mutation invalidates implicitly and entries never expire by time;
//     admission is bounded by size), and runs cache misses through a bounded worker pool
//     over the snapshot's concurrency-safe Run. Buffered and NDJSON
//     answers, a worker's shard-evals and a job's per-shard steps share
//     that one path and differ only in how they drain the tuple stream, so
//     they are counted and classify errors alike. Ingest, document delete,
//     and compact call the corpus directly; the service does not drive
//     compaction — each corpus starts its own background folds from the
//     triggers in its config.
//
//   - HTTP: a JSON API over the Service — POST /v1/query, POST /v1/validate,
//     GET /v1/corpora, GET /v1/corpora/{name}/stats,
//     POST /v1/corpora/{name}/reload, POST /v1/corpora/{name}/documents,
//     POST /v1/corpora/{name}/compact, DELETE /v1/corpora/{name},
//     the /v1/jobs family, GET /v1/healthz, GET /v1/metrics —
//     served by cmd/kokod. Buffered, NDJSON and job answers append each
//     batch's JSON (koko.Batch.AppendJSON: the engine's tuples encoded by
//     the tuple codec, or a worker's bytes copied as they arrived),
//     byte-identical to encoding/json's; buffered and NDJSON answers share
//     one drain, which appends each batch as the shards deliver it and
//     keeps the batches for the result cache, and a buffered body is whole
//     before its status line.
package server
