// Package store is the in-memory stand-in for the paper's PostgreSQL, used
// by Figure 6 and nothing else.
//
// The paper stores parsed text and all indices in PostgreSQL: the inverted
// word/entity indices as flat tables W and E with B-tree indexes, and the
// hierarchy indices as closure tables PL and POS (§6.2.1). This package
// provides the embedded equivalent, write-only: typed heap tables whose
// secondary indexes keep the byte total of their order-preserving keys, the
// footprint a B-tree over them would hold. Figure 6's index footprint is
// measured over these tables (index.Index.Save and the INVERTED /
// ADVINVERTED / SUBTREE baselines' Save), so size comparisons measure index
// organization rather than storage-engine differences, as the paper's
// shared-Postgres setup does. Nothing reads a table back.
//
// The package has no file format. Stores on disk are KOKOBS2 block stores
// (internal/koko/index/blockstore) named by JSON manifests (koko).
package store
