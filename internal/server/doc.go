// Package server is the service layer of the KOKO reproduction: it turns
// the one-shot library engine into a long-running, concurrent query service
// (the deployment shape the paper assumes for "an engine behind real
// extraction workloads").
//
// The package is organized in three layers:
//
//   - Registry: a named, versioned collection of mutable corpora. Each
//     entry wraps its engines in a koko.Mutable — loaded from a persisted
//     .koko store (hot-reloadable) or registered in memory — and mirrors
//     the current immutable koko.Snapshot that queries resolve. Every
//     mutation (load, reload, single-document ingest, compaction) bumps a
//     registry-wide generation counter, which downstream caches key on;
//     readers holding an older snapshot are never disturbed.
//
//   - Service: the execution path shared by the HTTP server, the CLI, and
//     the benchmarks. It canonicalizes queries, consults a normalized-query
//     LRU result cache (keyed corpus × generation × canonical text, so any
//     mutation invalidates implicitly; admission is bounded by size and by
//     a cost floor), and runs cache misses through a bounded worker pool
//     over the snapshot's concurrency-safe Run. It also drives the
//     mutable-corpus lifecycle: ingest, auto- and interval compaction, and
//     corpus deletion.
//
//   - HTTP: a JSON API over the Service — POST /v1/query, POST /v1/validate,
//     GET /v1/corpora, GET /v1/corpora/{name}/stats,
//     POST /v1/corpora/{name}/reload, POST /v1/corpora/{name}/documents,
//     POST /v1/corpora/{name}/compact, DELETE /v1/corpora/{name},
//     the /v1/jobs family, GET /v1/healthz, GET /v1/metrics —
//     served by cmd/kokod.
package server
