// Package store is the in-memory stand-in for the paper's PostgreSQL, used
// by two experiments and nothing else.
//
// The paper stores parsed text and all indices in PostgreSQL: the inverted
// word/entity indices as flat tables W and E with B-tree indexes, and the
// hierarchy indices as closure tables PL and POS (§6.2.1). This package
// provides the embedded equivalent: typed heap tables with B+tree secondary
// indexes over order-preserving key encodings. Figure 6's index footprint
// is measured over these tables (index.Index.Save and the INVERTED /
// ADVINVERTED / SUBTREE baselines' Save), so size comparisons measure index
// organization rather than storage-engine differences, as the paper's
// shared-Postgres setup does; Table 2's LoadArticle phase reads parsed
// sentences back from them (engine.Options.ArticleDB).
//
// The package has no file format. Stores on disk are KOKOBS1 block stores
// (internal/koko/index/blockstore) named by JSON manifests (koko).
package store
