// Package serve turns a setcontain.Store into a long-lived HTTP/JSON
// query service — the serving layer behind cmd/setcontaind.
//
// The centrepiece is the Batcher: every query enters through one entry
// point, Batcher.DoExprLimit, and concurrent queries coalesce into
// micro-batches — whatever is queued when a dispatcher takes work, plus
// whatever arrives within a fixed 500 µs window while the batch is
// short, at most Config.MaxBatch — that dispatch through one
// Store.ExecBatchAppend call each, so fan-in traffic shares pooled
// readers, warm caches, scratch arenas, and shared subexpressions
// instead of each request paying its own. This is exactly where the
// paper's skew argument pays off at the serving tier: the hottest
// inverted lists decode once per batch rather than once per query.
//
// A Server wraps the batcher with HTTP handlers:
//
//	POST /query    — batch of queries in, NDJSON answer chunks out
//	GET  /query    — single query via ?q=subset{3 17} (setcontain.ParseExpr)
//	GET  /stream   — one query streamed chunk-by-chunk with flushes
//	GET  /stats    — batcher histogram, store cache counters, shard and
//	                 expression-planner accounting
//	GET  /healthz  — liveness plus index identity and mutation state
//
// Queries on the wire are boolean expressions in the textual
// setcontain.ParseExpr grammar — GET ?q= accepts the full form
// (`?q=subset{1 2} and not superset{3}`, URL-encoded), and a POST spec
// carries either the structured {"pred","items"} pair or the same text
// under {"expr"}. A plain predicate is the one-leaf degenerate
// expression: without a limit it skips planning and runs the plain
// query path inside its micro-batch. Other expressions go through the
// store's cost-based planner, which orders AND legs rarest-first and
// short-circuits the rest when an intermediate empties; /stats reports
// that accounting under "planner". A query string that fails to parse
// answers 400 with a JSON body carrying the error and the byte offset
// of the failing token.
//
// The /admin endpoints mutate the live collection (serialized by an
// internal lock; queries keep flowing on the store's pooled readers):
//
//	POST /admin/insert   — add record sets to the delta, returns their ids
//	POST /admin/delete   — tombstone record ids (masked immediately)
//	POST /admin/merge    — fold delta + tombstones into the disk structures
//	POST /admin/snapshot — stream a restorable snapshot container
//
// A failed mutation answers 400 when the request itself was at fault
// (bad set, unknown id) and 503 when the write-ahead log wedged — told
// apart by classifying the returned error (wal.ErrWedged), never by
// sampling global state a concurrent request may have changed. A
// mid-batch insert failure answers with InsertErrorResponse: the
// error, the ids acknowledged before the failing set (with a WAL those
// inserts are already durable), and the index of the first
// unacknowledged set.
//
// Each mutation refreshes the store, so answers served after the
// response reflect it. The snapshot body is what `setcontaind
// -snapshot` loads at boot — a warm daemon restarts without rebuilding
// from the raw dataset.
//
// Answers stream as NDJSON chunks (GET /stream through Store.ExecSeq), so a
// huge answer set never materializes in the response path. Admission is
// bounded: when Config.MaxPending queries are already queued, new ones
// are refused with ErrSaturated (HTTP 429) instead of growing an
// unbounded backlog, and every request's context deadline propagates
// into the Store's interrupt hook, so a disconnected or expired client
// stops its query mid-scan.
package serve
