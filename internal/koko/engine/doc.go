// Package engine evaluates KOKO queries (paper §4). Evaluation proceeds in
// the paper's four stages:
//
//  1. Normalize (§4.1) — path expressions are expanded to absolute form,
//     horizontal-condition components become explicit variables (the ∧
//     elastic spans get synthesized names), and structural constraints
//     (parentOf / ancestorOf / leftOf) are derived.
//
//  2. Decompose Paths & Lookup Indices, DPLI (§4.2) — dominant paths are
//     identified, each is decomposed into a parse-label path, a POS-tag
//     path, and a word path; the PL, POS, and word indices are consulted and
//     joined on (sid, tid). The hierarchy side of that join reads the
//     index's per-token node-id columns (the W table's plid/posid): a token
//     is in a hierarchy path's lookup when its node id is among the path's
//     matched nodes. So a path with words joins only the word lists, with
//     the paper's interval+depth arithmetic, and checks node ids; a path
//     without words walks the hierarchy lists of its smaller node set as
//     lead and checks the other alphabet's ids. The lookups run rarest
//     lead list first, each restricted to the sentences the earlier ones
//     left. The result is a complete (but not necessarily sound) candidate
//     set of sentences plus per-sentence binding-count estimates.
//
//  3. Generate Skip Plan, GSP (§4.3, Algorithm 2) — for every horizontal
//     condition the costliest variables (elastic spans cost t(t+1)/2) are
//     greedily skipped provided their neighbors are not skipped; the
//     remaining variables are enumerated by nested loops, skipped variables
//     are aligned from their neighbors' bindings, and every path expression
//     and derived constraint is re-validated (this restores soundness). A
//     path is matched bottom-up: tokens passing its last step climb their
//     head chain through the earlier steps, memoized per (token, step).
//
//  4. Aggregate (§4.4) — for every candidate output value, the satisfying
//     clause's weighted evidence is collected across the whole document
//     (boolean conditions, proximity, and descriptor conditions expanded
//     through the paraphrase model and matched against decomposed canonical
//     clauses); values below the threshold or matching the excluding clause
//     are dropped.
//
// An engine reads its shard's text only through index.Columns: each run
// binds the query's words, POS tags and parse labels to the shard
// dictionary's ids once (normQuery.bind), and compiles its patterns once,
// so a token test compares ints.
//
// A run evaluates its candidate documents in order on the goroutine that
// pulls its Stream, a block at a time: a block takes whole documents until
// it holds at least 64 candidate sentences, then runs stage 3's skip plan
// for every sentence (each plan kept in a reused slab), the nested loops for
// every sentence (emissions in one arena, each sentence's run of it restored
// to declaration order), and stage 4 plus rendering per emission, with the
// aggregator reset at each document. The clock is read once per phase
// boundary, and the context checked and the store fault boundary armed once,
// per block; a block's output values share one string. The engine starts no
// goroutines of its own. A query is parallelized one level up, by
// evaluating shards concurrently (package koko), which is the only
// intra-query parallelism.
//
// Evaluation reads sentences from the shard's in-memory Columns only. The
// engine reports per-phase wall-clock times (the paper's Table 2 breakdown:
// Normalize / DPLI / GSP / extract / satisfying, plus planning; the paper's
// LoadArticle phase has no per-query counterpart, since a served store
// decodes its articles once, at open) and supports disabling the skip plan for the Table 1 ablation. Written-
// order evaluation (RunOptions.NoPlan) is the planner's test oracle, not a
// serving option.
package engine
