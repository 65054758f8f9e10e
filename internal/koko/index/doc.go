// Package index implements KOKO's multi-indexing scheme (paper §3):
//
//   - an inverted word index mapping every word to a posting list of
//     quintuples (sid, tid, u–v, depth) — sentence id, token id, first and
//     last token of the token's dependency subtree, and the token's depth in
//     the dependency tree;
//   - the entity index, whose triples (sid, u–v) with their types are the
//     columns' entity mentions themselves; the index adds only, per type
//     and for all types, the sentences holding mentions and how many
//     (Index.EntityCounts), which DPLI prunes typed variables with;
//   - two hierarchy indices — the PL index over parse labels and the POS
//     index over POS tags — built by merging all dependency trees node-wise
//     from the root (a dataguide over dependency structure). Every merged
//     node is identified by its root path and carries a posting list of the
//     tokens that realize that path. By construction the merge eliminates
//     the overwhelming majority of nodes (the paper reports >99.7%), which
//     is what makes the hierarchy index both compact and fast. Alongside
//     the lists, every index holds each token's PL and POS node ids
//     (Index.PLNode, Index.POSNode), aligned with its columns' token
//     offsets: the plid/posid columns of the W table. Since a node's list
//     holds exactly the tokens whose root path is that node, membership
//     of token t in a hierarchy lookup is one column read; the engine
//     walks hierarchy lists only to lead a path without words.
//
// The package also defines the two forms of a corpus's text. Corpus is the
// parser's output: globally sentence-id'd nlp.Sentence values, what callers
// build and hand in. Columns is what a served shard holds: every token
// attribute as one flat pointer-free column (uint32 ids of the surface and
// lowered forms, the canonical POS tag and parse label into the shard's
// string Dict; int32 head, depth, subtree bounds and entity link), with
// sentences and entities as offset ranges and Sent as a copy-free view of
// one sentence. ColumnsOf converts a Corpus once; the block store decodes
// straight into Columns; indexing (BuildColumns), sharding (ShardCorpus),
// the Delta and compaction read and write Columns only. Index.Save writes
// the paper's §6.2.1 relational schemas into the in-memory storage
// substrate (package store), which Figure 6 measures and nothing reads:
// W(word,x,y,u,v,d,plid,posid), E(entity,type,x,u,v), and closure tables
// PL/POS(id,label,depth,aid,alabel,adepth). On disk, corpus and indices
// live in the block store (package blockstore).
package index
