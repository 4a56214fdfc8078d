package setcontain

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// The Store's expression state: the support profile expressions are
// planned against, cached per store generation, the planner counters,
// and the sharded executor that pushes a plan down to every shard in
// parallel, merging the per-shard answers with the round-robin k-way
// interleave. The entry points themselves live in store.go.

// ErrNegativeLimit reports a negative limit passed to a limited Store
// entry point or batch item; the serving layer maps it to a 400.
var ErrNegativeLimit = errors.New("setcontain: negative limit")

// exprState is the Store's expression-planning state: the support
// profile cache, keyed by store generation so mutations invalidate it
// through the same Refresh that retires pooled readers, plus the
// cumulative planner counters.
type exprState struct {
	mu   sync.Mutex
	gen  uint64
	prof *SupportProfile

	expressions     atomic.Int64
	evaluatedLeaves atomic.Int64
	streamedLeaves  atomic.Int64
	skippedLeaves   atomic.Int64
	cseHits         atomic.Int64
	cseMisses       atomic.Int64
	cseSavedLeaves  atomic.Int64
}

// Supports returns the store's cached support profile, recomputing it
// when a Refresh has retired the previous one. The profile snapshots
// the merged structures under the store's mutation lock, so it never
// observes a half-applied update.
func (s *Store) Supports() *SupportProfile {
	gen := s.gen.Load()
	s.expr.mu.Lock()
	defer s.expr.mu.Unlock()
	if s.expr.prof == nil || s.expr.gen != gen {
		s.mu.RLock()
		prof := SupportsOf(s.ix.Engine())
		s.mu.RUnlock()
		s.expr.prof, s.expr.gen = prof, gen
	}
	return s.expr.prof
}

// ExprStats is the Store's cumulative planner accounting: expressions
// executed through the planned path, containment leaves actually
// evaluated (and how many of those streamed instead of materializing),
// leaves the empty-intermediate short-circuit skipped, and the batch
// subexpression cache's hit/miss/saved-leaf counters. A one-leaf
// expression without a limit runs the plain query path and is not
// counted here.
type ExprStats struct {
	Expressions     int64
	EvaluatedLeaves int64
	StreamedLeaves  int64
	SkippedLeaves   int64
	CSEHits         int64
	CSEMisses       int64
	CSESavedLeaves  int64
}

// ExprStats returns the cumulative planned-evaluation counters.
func (s *Store) ExprStats() ExprStats {
	return ExprStats{
		Expressions:     s.expr.expressions.Load(),
		EvaluatedLeaves: s.expr.evaluatedLeaves.Load(),
		StreamedLeaves:  s.expr.streamedLeaves.Load(),
		SkippedLeaves:   s.expr.skippedLeaves.Load(),
		CSEHits:         s.expr.cseHits.Load(),
		CSEMisses:       s.expr.cseMisses.Load(),
		CSESavedLeaves:  s.expr.cseSavedLeaves.Load(),
	}
}

func (s *Store) noteExprEval(st ExprEvalStats) {
	s.expr.expressions.Add(1)
	s.expr.evaluatedLeaves.Add(int64(st.EvaluatedLeaves))
	s.expr.streamedLeaves.Add(int64(st.StreamedLeaves))
	s.expr.skippedLeaves.Add(int64(st.SkippedLeaves))
}

func (s *Store) noteCSE(c *cseState) {
	if c == nil {
		return
	}
	s.expr.cseHits.Add(int64(c.hits))
	s.expr.cseMisses.Add(int64(c.misses))
	s.expr.cseSavedLeaves.Add(int64(c.savedLeaves))
}

// execSharded evaluates the planned job against every shard through
// the scatter-gather executor and k-way merges the local answers into
// global id order. The boolean algebra distributes over the partition —
// the shards hold disjoint record sets, so each shard's local answer
// (its NOT universe included) is exactly the global answer restricted
// to that shard — which keeps sharded expression answers byte-identical
// to single-engine ones while every shard plans, short-circuits, and
// combines independently.
//
// A shard whose reader can accept whole expressions (a remote shard
// client) gets the original expression pushed down and plans it against
// its own local supports; the rest evaluate the coordinator's plan
// directly. With n > 0 the limit is pushed per shard — the partitioner
// maps each shard's ascending local answer to an ascending global
// subsequence, so the global first n ids are always contained in the
// union of the shards' local first n — then the merged answer is
// truncated.
func (s *Store) execSharded(ctx context.Context, dst []uint32, j job, sr *shardedReader) ([]uint32, error) {
	stats := make([]ExprEvalStats, len(sr.shards))
	ids, err := scatterGather(ctx, sr.part, func(cctx context.Context, shard int) ([]uint32, error) {
		rd := sr.shards[shard]
		if pe, ok := rd.r.(exprAppender); ok {
			return pe.AppendExpr(cctx, nil, j.expr, j.limit)
		}
		local, st, err := j.plan.EvalLimitAppend(nil, rd, j.limit)
		stats[shard] = st
		return local, err
	})
	if err != nil {
		return nil, err
	}
	if j.limit > 0 && len(ids) > j.limit {
		ids = ids[:j.limit]
	}
	s.noteExprEval(sumShardStats(stats))
	return append(dst, ids...), nil
}

// sumShardStats folds per-shard evaluation stats into one expression's
// accounting: one expression, leaf work summed across the shards that
// did it.
func sumShardStats(stats []ExprEvalStats) ExprEvalStats {
	var total ExprEvalStats
	for _, st := range stats {
		total.EvaluatedLeaves += st.EvaluatedLeaves
		total.StreamedLeaves += st.StreamedLeaves
		total.SkippedLeaves += st.SkippedLeaves
	}
	return total
}
