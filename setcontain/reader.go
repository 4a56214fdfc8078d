package setcontain

import (
	"repro/internal/core"
	"repro/internal/storage"
)

// engineReader is the uniform surface of the backends' isolated query
// handles (core.Reader, invfile.Reader, ubtree.Reader).
type engineReader interface {
	Subset(qs []Item) ([]uint32, error)
	Equality(qs []Item) ([]uint32, error)
	Superset(qs []Item) ([]uint32, error)
	Stats() storage.AccessStats
	ResetStats()
	Pool() *storage.BufferPool
}

// Reader is an isolated, concurrency-safe-by-design query handle created
// by Index.NewReader (or Engine.NewReader): it shares the parent's
// immutable pages but owns its cache, so one reader per goroutine
// queries in parallel. Readers see the inserts that existed when they
// were created and never the later ones. Store manages a pool of
// readers automatically.
type Reader struct {
	r engineReader
}

// Subset answers like Index.Subset.
func (r *Reader) Subset(qs []Item) ([]uint32, error) { return r.r.Subset(qs) }

// Equality answers like Index.Equality.
func (r *Reader) Equality(qs []Item) ([]uint32, error) { return r.r.Equality(qs) }

// Superset answers like Index.Superset.
func (r *Reader) Superset(qs []Item) ([]uint32, error) { return r.r.Superset(qs) }

// Eval answers a first-class Query.
func (r *Reader) Eval(q Query) ([]uint32, error) { return q.Eval(r) }

// AppendSubset appends the Subset answer to dst — the reader's
// zero-allocation form when the backend supports it (OIF), otherwise a
// plain call plus copy. See Index.AppendSubset for the append contract.
func (r *Reader) AppendSubset(dst []uint32, qs []Item) ([]uint32, error) {
	if ar, ok := r.r.(AppendQueryable); ok {
		return ar.AppendSubset(dst, qs)
	}
	ids, err := r.r.Subset(qs)
	if err != nil {
		return nil, err
	}
	return appendAnswer(dst, ids), nil
}

// AppendEquality appends the Equality answer to dst; see AppendSubset.
func (r *Reader) AppendEquality(dst []uint32, qs []Item) ([]uint32, error) {
	if ar, ok := r.r.(AppendQueryable); ok {
		return ar.AppendEquality(dst, qs)
	}
	ids, err := r.r.Equality(qs)
	if err != nil {
		return nil, err
	}
	return appendAnswer(dst, ids), nil
}

// AppendSuperset appends the Superset answer to dst; see AppendSubset.
func (r *Reader) AppendSuperset(dst []uint32, qs []Item) ([]uint32, error) {
	if ar, ok := r.r.(AppendQueryable); ok {
		return ar.AppendSuperset(dst, qs)
	}
	ids, err := r.r.Superset(qs)
	if err != nil {
		return nil, err
	}
	return appendAnswer(dst, ids), nil
}

// EvalAppend answers a first-class Query in append form.
func (r *Reader) EvalAppend(dst []uint32, q Query) ([]uint32, error) {
	return q.EvalAppend(dst, r)
}

// DecodedCacheStats reports this reader's private decoded-block cache
// statistics (all zero for backends without one).
func (r *Reader) DecodedCacheStats() DecodedCacheStats {
	switch ds := r.r.(type) {
	case decodedStatser:
		return ds.DecodedStats()
	case interface{ DecodedStats() core.DecodedCacheStats }:
		return decodedStatsOf(ds.DecodedStats())
	}
	return DecodedCacheStats{}
}

// CacheStats returns this reader's private access statistics.
func (r *Reader) CacheStats() CacheStats { return cacheStatsOf(r.r.Stats()) }

// ResetCacheStats zeroes this reader's statistics.
func (r *Reader) ResetCacheStats() { r.r.ResetStats() }

// interruptPropagator is implemented by composite readers (the sharded
// reader) that must install the cancellation hook on several pools.
type interruptPropagator interface {
	setInterrupt(fn func() error)
}

// setInterrupt installs fn as the reader's cancellation check, consulted
// by its buffer pool between list-block reads. Store.Exec wires a
// context's Err here for the duration of a query. Composite readers
// propagate the hook to every shard pool, so fn must tolerate concurrent
// calls.
func (r *Reader) setInterrupt(fn func() error) {
	if p, ok := r.r.(interruptPropagator); ok {
		p.setInterrupt(fn)
		return
	}
	r.r.Pool().SetInterrupt(fn)
}
