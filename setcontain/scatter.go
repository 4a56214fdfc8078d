package setcontain

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
)

// The scatter-gather executor is the one fan-out/merge engine behind
// every sharded execution path — the Store's Exec forms, the limit
// pushdown, and the engine-level predicate calls. It is transport
// agnostic: the per-shard callback may hit an in-process engine, an
// in-process ShardClient, or a remote HTTP shard; the executor only
// owns the concurrency (one goroutine per shard — shards have
// independent readers/connections, so one in-flight call per shard is
// safe), sibling cancellation on first failure, error aggregation into
// ShardError, and the order-preserving k-way merge back to global ids.

// ShardError reports which shard failed during a scatter-gather
// fan-out. errors.Is/As see through it to the underlying cause.
type ShardError struct {
	// Shard is the failing shard's index in [0, NumShards).
	Shard int
	// Err is the shard's error.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("setcontain: shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the shard's underlying error to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// shardCall answers one shard's part of a scatter: ascending local ids
// plus an error. ctx is canceled when a sibling shard fails first.
type shardCall func(ctx context.Context, shard int) ([]uint32, error)

// scatterGather fans call out to every shard concurrently, cancels the
// siblings as soon as one shard fails, and merges the ascending local
// answers into one ascending global-id slice through the partitioner.
// The first causal failure comes back wrapped in ShardError; if the
// caller's own ctx was canceled, that ctx error is returned unwrapped
// (the caller asked to stop — no shard is at fault).
func scatterGather(ctx context.Context, part Partitioner, call shardCall) ([]uint32, error) {
	locals, err := scatterLocals(ctx, part.NumShards(), call)
	if err != nil {
		return nil, err
	}
	return mergeLocals(part, locals), nil
}

// scatterLocals is scatterGather without the merge: the per-shard
// answers in shard order, for callers that post-process locals
// themselves (the limit pushdown truncates after merging; snapshot
// assembly wants raw frames).
func scatterLocals(ctx context.Context, n int, call shardCall) ([][]uint32, error) {
	if n == 1 {
		// One shard: no goroutine, no derived context, direct call.
		local, err := call(ctx, 0)
		if err != nil {
			return nil, gatherErr(ctx, []error{err})
		}
		return [][]uint32{local}, nil
	}
	// Always derive a cancelable context, even from context.Background:
	// the first shard failure must reach the siblings (a blocked remote
	// call on a healthy shard would otherwise outlive a dead one).
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	locals := make([][]uint32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			locals[s], errs[s] = call(cctx, s)
			if errs[s] != nil {
				cancel()
			}
		}(s)
	}
	wg.Wait()
	if err := gatherErr(ctx, errs); err != nil {
		return nil, err
	}
	return locals, nil
}

// gatherErr reduces per-shard errors to the one the caller should see:
// the caller's own cancellation verbatim, else the first shard error
// that is not a sibling-cancellation casualty, wrapped in ShardError.
func gatherErr(ctx context.Context, errs []error) error {
	first := -1
	for s, err := range errs {
		if err == nil {
			continue
		}
		if first < 0 {
			first = s
		}
		if !errors.Is(err, context.Canceled) {
			first = s
			break
		}
	}
	if first < 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return &ShardError{Shard: first, Err: errs[first]}
}

// forEachShard runs f for every shard index concurrently, bounded by at
// most `bound` goroutines (<= 0 selects GOMAXPROCS), and returns the
// per-shard errors. It is the bounded fan-out loop behind parallel
// shard builds, merges, and snapshot encode/decode — control-plane
// work, where a goroutine per shard times cores is too many. The query
// path uses scatterGather, whose fan-out is one goroutine per shard.
func forEachShard(n, bound int, f func(s int) error) []error {
	if bound <= 0 {
		bound = runtime.GOMAXPROCS(0)
	}
	if bound > n {
		bound = n
	}
	errs := make([]error, n)
	sem := make(chan struct{}, bound)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[s] = f(s)
		}(s)
	}
	wg.Wait()
	return errs
}

// mergeLocals interleaves the shards' ascending local answers into one
// ascending global-id slice, mapping local ids to global through the
// partitioner. Each head's global id is computed once when the head
// advances (not re-derived per comparison), so the merge costs one
// GlobalOf per output id plus a k-wide scan per round.
func mergeLocals(part Partitioner, locals [][]uint32) []uint32 {
	n := len(locals)
	total := 0
	for _, l := range locals {
		total += len(l)
	}
	out := make([]uint32, 0, total)
	if total == 0 {
		return out
	}
	if n == 1 {
		for _, l := range locals[0] {
			out = append(out, part.GlobalOf(0, l))
		}
		return out
	}
	pos := make([]int, n)
	heads := make([]uint32, n) // current global id per shard; 0 = exhausted
	live := 0
	for s, l := range locals {
		if len(l) > 0 {
			heads[s] = part.GlobalOf(s, l[0])
			live++
		}
	}
	for live > 0 {
		best := -1
		var bestID uint32
		for s, id := range heads {
			if id == 0 {
				continue
			}
			if best < 0 || id < bestID {
				best, bestID = s, id
			}
		}
		out = append(out, bestID)
		pos[best]++
		if pos[best] < len(locals[best]) {
			heads[best] = part.GlobalOf(best, locals[best][pos[best]])
		} else {
			heads[best] = 0
			live--
		}
	}
	return out
}

// MergeSeqs interleaves already-ascending id sequences into one
// ascending sequence, consuming each input lazily (via iter.Pull) — the
// streaming form of the k-way interleave the scatter-gather executor
// performs directly (mergeLocals). Inputs must yield comparable ids
// from the same id space: per-shard *local* answers need the
// partitioner's global mapping applied first. Nil sequences are
// skipped, and abandoning the merged sequence early stops every input.
func MergeSeqs(seqs ...iter.Seq[uint32]) iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		type head struct {
			v    uint32
			next func() (uint32, bool)
			stop func()
		}
		heads := make([]head, 0, len(seqs))
		defer func() {
			for _, h := range heads {
				h.stop()
			}
		}()
		for _, s := range seqs {
			if s == nil {
				continue
			}
			next, stop := iter.Pull(s)
			v, ok := next()
			if !ok {
				stop()
				continue
			}
			heads = append(heads, head{v: v, next: next, stop: stop})
		}
		for len(heads) > 0 {
			mi := 0
			for i := 1; i < len(heads); i++ {
				if heads[i].v < heads[mi].v {
					mi = i
				}
			}
			if !yield(heads[mi].v) {
				return
			}
			if v, ok := heads[mi].next(); ok {
				heads[mi].v = v
			} else {
				heads[mi].stop()
				heads[mi] = heads[len(heads)-1]
				heads = heads[:len(heads)-1]
			}
		}
	}
}
