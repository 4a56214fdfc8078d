package setcontain

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// Store is a concurrency-safe query facade over an Index. It owns a
// sync.Pool of per-goroutine Readers, so any number of goroutines can
// Exec queries in parallel without managing readers themselves; each
// call borrows an isolated reader (cache and statistics included) and
// returns it when done.
//
// Exec and ExecBatch honour context cancellation: the borrowed reader's
// buffer pool checks ctx.Err between list-block reads, so even a query
// scanning a long inverted list stops promptly, returning ctx.Err().
// Over a Sharded index each pooled reader carries one isolated reader
// per shard, and the cancellation hook reaches every shard's pool, so
// a cancelled query stops all shard fan-outs mid-stream.
//
// A Store serves the snapshot its readers were created from. After
// Insert, Delete, or MergeDelta on the underlying Index, call Refresh
// to retire pooled readers so subsequent queries see the change. To
// mutate the Index while queries are in flight, wrap the mutation in
// Update — it excludes the store's reader creation (which snapshots the
// Index's state) for the mutation's duration and refreshes afterwards;
// mutating the Index directly is only safe when no Store call can run
// concurrently.
type Store struct {
	ix         *Index
	cachePages int
	gen        atomic.Uint64
	readers    sync.Pool // of *storeReader

	// mu excludes Index mutations (Update's write side) from pooled
	// reader creation (acquire's read side): NewReader snapshots the
	// Index's mutable state, so it must not observe a half-applied
	// Insert/Delete/MergeDelta. Pooled readers already created are
	// isolated clones and need no lock.
	mu sync.RWMutex

	// Aggregate statistics over all pooled readers, accumulated at
	// release time (see storeReader's last* snapshots). Per-field
	// atomics keep the per-query release path free of a store-wide
	// lock; /stats-style readers tolerate the fields being read
	// without a single atomic cut.
	totals storeCounters

	// expr holds the expression planner's generation-cached support
	// profile and counters (see store_expr.go).
	expr exprState
}

// storeCounters is the lock-free accumulator behind Store.Stats.
type storeCounters struct {
	cacheHits, pageReads, seqReads, nearReads, randReads atomic.Int64

	decHits, decMisses, decAdmitted, decRejected, decEvicted atomic.Int64
	// Gauges: the most recently released reader's observation.
	decPostings, decCapacity atomic.Int64
}

// storeReader tags a pooled reader with the store generation it was
// created under, so Refresh can retire stale snapshots lazily. The
// last* fields snapshot the reader's cumulative statistics at its
// previous release, so each release folds only the delta of the query
// it just served into the store-wide totals.
type storeReader struct {
	r           *Reader
	gen         uint64
	lastCache   CacheStats
	lastDecoded DecodedCacheStats

	// eval is the reader's persistent expression evaluator: its free
	// list survives across the queries this pooled reader serves, so
	// steady-state expression evaluation allocates nothing.
	eval Evaluator

	// Cancellation state consulted by hook: batch spans a whole
	// Exec/ExecBatchAppend call, item narrows to the query currently
	// executing. hook is created once per storeReader and reused, so
	// arming cancellation on the hot path allocates nothing.
	batch context.Context
	item  context.Context
	hook  func() error
}

// arm installs the reader's reusable interrupt hook scoped to batch
// (and initially item = batch); ExecBatchAppend narrows item per query.
// disarm clears the hook and drops the context references.
func (e *storeReader) arm(batch context.Context) {
	if e.hook == nil {
		e.hook = func() error {
			if err := e.batch.Err(); err != nil {
				return err
			}
			return e.item.Err()
		}
	}
	e.batch, e.item = batch, batch
	e.r.setInterrupt(e.hook)
}

func (e *storeReader) disarm() {
	e.r.setInterrupt(nil)
	e.batch, e.item = nil, nil
}

// NewStore returns a store over ix whose pooled readers each carry a
// private cache of cachePages pages (0 selects the default 32 KB). The
// budget is per inner reader: over a Sharded index every pooled reader
// holds one such cache per shard, so its footprint is cachePages times
// the shard count — divide accordingly when comparing against (or
// migrating from) a single-engine store under a fixed memory budget.
func NewStore(ix *Index, cachePages int) *Store {
	return &Store{ix: ix, cachePages: cachePages}
}

// Refresh retires the pooled readers: queries issued after Refresh run
// on readers created from the index's current state. Call it after
// Insert, Delete, or MergeDelta on the underlying Index.
func (s *Store) Refresh() { s.gen.Add(1) }

// Update runs fn — a mutation of the underlying Index such as Insert,
// Delete, or MergeDelta — while no pooled reader is being created, then
// refreshes the store so subsequent queries observe the change. This is
// the safe way to mutate a served index: in-flight queries keep running
// on their isolated readers, new queries wait only for the mutation
// itself. The serve package's /admin endpoints mutate through it.
func (s *Store) Update(fn func() error) error {
	s.mu.Lock()
	err := fn()
	s.mu.Unlock()
	s.Refresh()
	return err
}

// Mutator is the batched mutation surface the serving layer writes
// through, implemented by both Store (plain, in-memory only) and
// Durable (write-ahead logged): the handlers stay identical whether the
// deployment wants durability or not, and the ack-after-durable rule
// lives in exactly one place (Durable) instead of being sprinkled
// through HTTP code.
type Mutator interface {
	// InsertSets inserts the sets in order and returns the assigned ids.
	// On a mid-batch failure the earlier inserts stick and their ids are
	// returned alongside the error, which names the failing set.
	InsertSets(sets [][]Item) ([]uint32, error)
	// DeleteIDs tombstones the ids in order; a failure names the id.
	DeleteIDs(ids []uint32) error
	// MergeDelta folds pending inserts and tombstones into the disk
	// structures.
	MergeDelta() error
}

// InsertSets implements Mutator over the plain store: inserts apply to
// the index under Update and are acknowledged immediately — they live
// only in memory and die with the process.
func (s *Store) InsertSets(sets [][]Item) ([]uint32, error) {
	ids := make([]uint32, 0, len(sets))
	err := s.Update(func() error {
		for i, set := range sets {
			id, err := s.ix.Insert(set)
			if err != nil {
				return fmt.Errorf("setcontain: inserting set %d (after %d inserted): %w", i, len(ids), err)
			}
			ids = append(ids, id)
		}
		return nil
	})
	return ids, err
}

// DeleteIDs implements Mutator over the plain store.
func (s *Store) DeleteIDs(ids []uint32) error {
	return s.Update(func() error {
		for i, id := range ids {
			if err := s.ix.Delete(id); err != nil {
				return fmt.Errorf("setcontain: deleting id %d (after %d deleted): %w", id, i, err)
			}
		}
		return nil
	})
}

// MergeDelta implements Mutator over the plain store.
func (s *Store) MergeDelta() error {
	return s.Update(s.ix.MergeDelta)
}

// acquire returns a reader of the current generation, creating one when
// the pool is empty or holds only stale snapshots.
func (s *Store) acquire() (*storeReader, error) {
	gen := s.gen.Load()
	for {
		e, _ := s.readers.Get().(*storeReader)
		if e == nil {
			break // pool empty: create fresh
		}
		if e.gen == gen {
			return e, nil
		}
		// Stale snapshot: drop it and keep looking.
	}
	s.mu.RLock()
	r, err := s.ix.NewReader(s.cachePages)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &storeReader{r: r, gen: gen}, nil
}

func (s *Store) release(e *storeReader) {
	e.disarm()
	s.accumulate(e)
	if e.gen == s.gen.Load() {
		s.readers.Put(e)
	}
}

// accumulate folds the reader's statistics delta since its previous
// release into the store-wide totals. Counters are summed as deltas;
// the decoded cache's Postings/Capacity gauges are tracked as the
// most recent observation (readers of one store share a configuration,
// so any reader's gauge is representative).
func (s *Store) accumulate(e *storeReader) {
	cache := e.r.CacheStats()
	decoded := e.r.DecodedCacheStats()
	t := &s.totals
	t.cacheHits.Add(cache.Hits - e.lastCache.Hits)
	t.pageReads.Add(cache.PageReads - e.lastCache.PageReads)
	t.seqReads.Add(cache.Sequential - e.lastCache.Sequential)
	t.nearReads.Add(cache.Near - e.lastCache.Near)
	t.randReads.Add(cache.Random - e.lastCache.Random)
	t.decHits.Add(decoded.Hits - e.lastDecoded.Hits)
	t.decMisses.Add(decoded.Misses - e.lastDecoded.Misses)
	t.decAdmitted.Add(decoded.Admitted - e.lastDecoded.Admitted)
	t.decRejected.Add(decoded.Rejected - e.lastDecoded.Rejected)
	t.decEvicted.Add(decoded.Evicted - e.lastDecoded.Evicted)
	t.decPostings.Store(int64(decoded.Postings))
	t.decCapacity.Store(int64(decoded.Capacity))
	e.lastCache = cache
	e.lastDecoded = decoded
}

// StoreStats aggregates the I/O and decoded-cache statistics of every
// reader a Store has pooled, the serving-side counterpart of
// Index.CacheStats (which reports the engine's own single-stream pool).
type StoreStats struct {
	// Cache is the summed page-cache behaviour of the pooled readers.
	Cache CacheStats
	// Decoded is the summed decoded-block cache behaviour; its
	// Postings/Capacity gauges reflect the most recently released
	// reader rather than a sum.
	Decoded DecodedCacheStats
}

// Stats returns statistics aggregated across all pooled readers. Totals
// advance when a query's reader is released, so in-flight queries
// contribute after they finish. Each field is read atomically; the
// snapshot as a whole is not one atomic cut.
func (s *Store) Stats() StoreStats {
	t := &s.totals
	return StoreStats{
		Cache: CacheStats{
			Hits:       t.cacheHits.Load(),
			PageReads:  t.pageReads.Load(),
			Sequential: t.seqReads.Load(),
			Near:       t.nearReads.Load(),
			Random:     t.randReads.Load(),
		},
		Decoded: DecodedCacheStats{
			Hits:     t.decHits.Load(),
			Misses:   t.decMisses.Load(),
			Admitted: t.decAdmitted.Load(),
			Rejected: t.decRejected.Load(),
			Evicted:  t.decEvicted.Load(),
			Postings: int(t.decPostings.Load()),
			Capacity: int(t.decCapacity.Load()),
		},
	}
}

// Exec answers q on a pooled reader. It is safe for any number of
// concurrent callers. Cancellation of ctx is checked before the query
// and between list-block reads during it; the returned error is then
// ctx.Err() (context.Canceled or context.DeadlineExceeded).
func (s *Store) Exec(ctx context.Context, q Query) ([]uint32, error) {
	return s.exec(ctx, nil, job{q: q})
}

// ExecAppend answers q on a pooled reader, appending the answer to dst
// and returning the extended slice — the zero-allocation serving form:
// with an OIF engine, warm caches, and a dst with capacity to spare, a
// steady-state call performs no heap allocations at all. The dst slice
// is owned by the caller throughout; pooled readers never retain it.
// Cancellation behaves exactly like Exec.
func (s *Store) ExecAppend(ctx context.Context, dst []uint32, q Query) ([]uint32, error) {
	return s.exec(ctx, dst, job{q: q})
}

// ExecExprAppend answers a boolean expression on a pooled reader with
// planned evaluation, appending the answer to dst. A one-leaf
// expression runs exactly like ExecAppend. Otherwise leaves evaluate
// through the reader's zero-allocation Append path (streaming into the
// accumulated candidate set where the engine supports it) and
// intermediates recycle inside the reader's persistent evaluator; only
// the final answer is copied into dst. Over a sharded index the plan
// is pushed to every shard in parallel and the local answers merge in
// global id order. Cancellation behaves like Exec, across every shard.
func (s *Store) ExecExprAppend(ctx context.Context, dst []uint32, expr *Expr) ([]uint32, error) {
	return s.execExpr(ctx, dst, expr, 0)
}

// ExecExprLimitAppend answers the first n ids of the expression's
// answer — exactly the prefix of what ExecExprAppend would append —
// stopping the evaluation as soon as n ids are produced: on
// cursor-capable engines (the inverted file) postings past the stop
// point are never decoded, and over a sharded index each shard
// evaluates under the same per-shard limit before the k-way merge
// truncates globally. n == 0 means no limit; a negative n returns
// ErrNegativeLimit.
func (s *Store) ExecExprLimitAppend(ctx context.Context, dst []uint32, expr *Expr, n int) ([]uint32, error) {
	return s.execExpr(ctx, dst, expr, n)
}

// ExecSeq answers the first limit ids of the expression (0 = all) as a
// lazy sequence. The evaluation runs eagerly under ctx like
// ExecExprLimitAppend; iteration is then cancellation-free and follows
// Query.EvalSeq's contract: ascending unique ids, single-use,
// abandonable.
func (s *Store) ExecSeq(ctx context.Context, expr *Expr, limit int) (iter.Seq[uint32], error) {
	return seqOf(s.execExpr(ctx, nil, expr, limit))
}

// job is one query routed for execution on a pooled reader: a plain
// containment query q when plan is nil, otherwise a planned expression
// answered up to limit ids (0 = all).
type job struct {
	q     Query
	expr  *Expr
	plan  *ExprPlan
	limit int
}

// route decides how an expression executes, and is the single home of
// the plain-path rule: a one-leaf expression with no limit becomes a
// plain query, which runs the reader's EvalAppend and skips planning
// and ExprStats; anything else is planned against the store's cached
// support profile.
func (s *Store) route(expr *Expr, limit int) (job, error) {
	if limit < 0 {
		return job{}, ErrNegativeLimit
	}
	if q, ok := expr.AsQuery(); ok && limit == 0 {
		return job{q: q}, nil
	}
	plan, err := PlanExpr(expr, s.Supports())
	if err != nil {
		return job{}, err
	}
	return job{expr: expr, plan: plan, limit: limit}, nil
}

// execExpr routes an expression and runs it through exec; a cancelled
// ctx is refused before any planning work.
func (s *Store) execExpr(ctx context.Context, dst []uint32, expr *Expr, limit int) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := s.route(expr, limit)
	if err != nil {
		return nil, err
	}
	return s.exec(ctx, dst, j)
}

// exec is the single-call core every Exec form shares: acquire a pooled
// reader, arm ctx, evaluate.
func (s *Store) exec(ctx context.Context, dst []uint32, j job) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer s.release(e)
	if ctx.Done() != nil {
		e.arm(ctx)
	}
	return s.run(ctx, e, dst, j, nil)
}

// run evaluates one routed job on the acquired reader e: the plain
// query through the reader's EvalAppend, a planned expression through
// the reader's persistent evaluator (with the batch's subexpression
// cache, when there is one) or, over a sharded index, the scatter-gather
// executor.
func (s *Store) run(ctx context.Context, e *storeReader, dst []uint32, j job, cse *cseState) ([]uint32, error) {
	if j.plan == nil {
		return e.r.EvalAppend(dst, j.q)
	}
	if sr, ok := e.r.r.(*shardedReader); ok {
		return s.execSharded(ctx, dst, j, sr)
	}
	ids, st, err := e.eval.run(dst, j.plan, e.r, cse, j.limit)
	if err != nil {
		return nil, err
	}
	s.noteExprEval(st)
	return ids, nil
}

// ExecBatch answers the queries concurrently across pooled readers
// (bounded by GOMAXPROCS) and returns the answers in query order. The
// first error cancels the remaining queries and is returned; results
// are nil in that case. A cancelled ctx aborts the whole batch with
// ctx.Err(): an answer set is returned only when every query completed.
func (s *Store) ExecBatch(ctx context.Context, qs []Query) ([][]uint32, error) {
	if err := ctx.Err(); err != nil || len(qs) == 0 {
		return nil, err
	}
	out := make([][]uint32, len(qs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers <= 1 {
		for i, q := range qs {
			ids, err := s.Exec(ctx, q)
			if err != nil {
				return nil, err
			}
			out[i] = ids
		}
		return out, nil
	}

	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) || bctx.Err() != nil {
					return
				}
				ids, err := s.Exec(bctx, qs[i])
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				out[i] = ids
			}
		}()
	}
	wg.Wait()
	// A worker that saw the caller's cancellation exits without an
	// error of its own, leaving its remaining answers unset: report the
	// cancellation rather than a partial result, and report it as such,
	// not as the internal batch cancel it triggered in sibling workers.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// BatchItem is one query of an ExecBatchAppend call: the expression,
// an optional first-n limit, its caller-owned append target, and (after
// the call) its answer or error.
type BatchItem struct {
	// Ctx optionally scopes this item alone: a cancelled or expired
	// per-item context fails the item with its error without disturbing
	// the rest of the batch. Nil means the batch context governs.
	Ctx context.Context
	// Expr is the boolean expression to answer; a plain Query is the
	// one-leaf ExprOf(q).
	Expr *Expr
	// Limit truncates the answer to its first Limit ids; 0 means the
	// full answer, negative fails the item with ErrNegativeLimit.
	Limit int
	// Dst is the append target; the answer is appended to it, and the
	// extended slice is returned in Out. The caller owns Dst throughout.
	Dst []uint32
	// Out receives the extended Dst slice on success, nil on error.
	Out []uint32
	// Err receives this item's error: nil, the per-item context's
	// error, a planning error, or the engine's query error.
	Err error
}

// ExecBatchAppend answers the items sequentially on a single pooled
// reader — the arena-friendly fan-in entry point the serve package's
// micro-batcher dispatches through. Where ExecBatch spreads a batch
// across readers for parallelism, ExecBatchAppend deliberately shares
// one: the reader is acquired once, every query reuses its scratch
// arenas and warm page/decoded caches (hot lists decode once per batch,
// not once per query), and answers append into the caller-owned Dst
// slices, so a steady-state batch of one-leaf queries over a warm OIF
// store performs no heap allocations at all.
//
// Items route like ExecExprLimitAppend: a one-leaf expression without a
// limit runs the plain query path, everything else is planned. Beyond
// the shared warm reader, planned items get common-subexpression
// elimination: plan subtrees whose canonical form repeats across the
// batch (a hot `subset` leg shared by several queries, a common filter
// conjunction) evaluate once, and every later occurrence reuses the
// cached answer. The hit/miss/saved-leaf counters surface through
// ExprStats. Over a sharded index each planned item fans out to the
// shards individually — the cache applies to single-engine stores.
//
// Per-item results land in items[i].Out / items[i].Err; a failed item
// does not disturb its batchmates. The returned count is how many items
// were processed: it is len(items) unless the batch context ctx is
// cancelled mid-batch, in which case processing stops, the remaining
// items are left untouched, and ctx's error is returned. A non-nil
// item Ctx additionally scopes that item alone — its deadline reaches
// the reader's interrupt hook, so even an item mid-way through a long
// list scan stops promptly with items[i].Err = item ctx's error.
func (s *Store) ExecBatchAppend(ctx context.Context, items []BatchItem) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(items) == 0 {
		return 0, nil
	}
	// Route every item up front: the subexpression cache needs the
	// whole batch's plans. The plan slice exists only when some item
	// is planned, keeping a batch of plain queries allocation-free.
	var plans []*ExprPlan
	for i := range items {
		it := &items[i]
		it.Out, it.Err = nil, nil
		j, err := s.route(it.Expr, it.Limit)
		if err != nil {
			it.Err = err
			continue
		}
		if j.plan != nil {
			if plans == nil {
				plans = make([]*ExprPlan, len(items))
			}
			plans[i] = j.plan
		}
	}
	cse := collectCSE(plans)
	e, err := s.acquire()
	if err != nil {
		return 0, err
	}
	defer s.release(e)
	// The reader's single reusable interrupt hook serves the whole
	// batch: it consults the batch context plus whichever item is
	// currently executing, so cancellation support costs two pointer
	// reads per page access and no per-item closures.
	armed := false
	for i := range items {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		it := &items[i]
		if it.Err != nil {
			continue // routing already failed the item
		}
		ictx := it.Ctx
		if ictx == nil {
			ictx = ctx
		}
		if err := ictx.Err(); err != nil {
			it.Err = err
			continue
		}
		if !armed && (ictx.Done() != nil || ctx.Done() != nil) {
			armed = true
			e.arm(ctx)
		}
		if armed {
			e.item = ictx
		}
		j := job{expr: it.Expr, limit: it.Limit}
		if plans != nil {
			j.plan = plans[i]
		}
		if j.plan == nil {
			j.q = it.Expr.Leaf // routed to the plain path: a one-leaf expression
		}
		it.Out, it.Err = s.run(ictx, e, it.Dst, j, cse)
	}
	s.noteCSE(cse)
	return len(items), nil
}
