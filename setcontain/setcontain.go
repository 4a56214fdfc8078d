package setcontain

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Item is a vocabulary element: a dense uint32 in [0, DomainSize).
type Item = uint32

// Collection is an in-memory set of records awaiting indexing. Records
// receive 1-based ids in insertion order; queries return these ids.
type Collection struct {
	ds *dataset.Dataset
}

// NewCollection returns an empty collection over items [0, domainSize).
func NewCollection(domainSize int) *Collection {
	return &Collection{ds: dataset.New(domainSize)}
}

// WrapDataset adapts a low-level dataset into a Collection. It is the
// bridge used by the in-module measurement layer (internal/experiments);
// external callers build collections with NewCollection or the readers.
func WrapDataset(ds *dataset.Dataset) *Collection { return &Collection{ds: ds} }

// Add appends a record (copied, sorted, deduplicated) and returns its id.
// Empty sets are allowed.
func (c *Collection) Add(set []Item) (uint32, error) { return c.ds.Add(set) }

// Len returns the number of records.
func (c *Collection) Len() int { return c.ds.Len() }

// DomainSize returns the vocabulary size.
func (c *Collection) DomainSize() int { return c.ds.DomainSize() }

// Record returns the item set of record id (1-based). The slice is owned
// by the collection.
func (c *Collection) Record(id uint32) ([]Item, error) {
	if id == 0 || int(id) > c.ds.Len() {
		return nil, fmt.Errorf("setcontain: record %d of %d", id, c.ds.Len())
	}
	return c.ds.Record(int(id - 1)).Set, nil
}

// SetLabels attaches item labels used by Label.
func (c *Collection) SetLabels(labels []string) error { return c.ds.SetLabels(labels) }

// Label returns item's label, or its decimal form if unlabeled.
func (c *Collection) Label(it Item) string { return c.ds.Label(it) }

// ReadCollection parses the text format (one record per line of
// space-separated item ids, optional "domain N" header).
func ReadCollection(r io.Reader) (*Collection, error) {
	ds, err := dataset.Read(r)
	if err != nil {
		return nil, err
	}
	return &Collection{ds: ds}, nil
}

// Write serialises the collection in the text format.
func (c *Collection) Write(w io.Writer) error { return dataset.Write(w, c.ds) }

// ReadMSWebCollection parses the UCI KDD "Anonymous Microsoft Web Data"
// format — the actual msweb log the paper evaluates on — replicating the
// sessions the given number of times (the paper uses 10 to simulate a
// ten-week log). Item labels carry the area titles.
func ReadMSWebCollection(r io.Reader, replicas int) (*Collection, error) {
	ds, err := dataset.ReadMSWeb(r)
	if err != nil {
		return nil, err
	}
	if replicas > 1 {
		ds, err = dataset.Replicate(ds, replicas)
		if err != nil {
			return nil, err
		}
	}
	return &Collection{ds: ds}, nil
}

// Index answers the three containment predicates through whichever
// Engine it wraps. Results are ascending record ids, identical across
// engines. An Index adds nothing over its Engine except a concrete type
// for call sites; IndexOver wraps an existing engine.
type Index struct {
	eng Engine
}

// Build indexes the collection with the engine selected by opts.Kind.
// The collection may keep growing afterwards, but new records are
// invisible to the index; use Insert on updatable engines instead.
func Build(c *Collection, opts Options) (*Index, error) {
	if c == nil || c.ds == nil {
		return nil, errors.New("setcontain: nil collection")
	}
	opts.fill()
	build, ok := engineBuilders[opts.Kind]
	if !ok {
		return nil, fmt.Errorf("setcontain: unknown index kind %v", opts.Kind)
	}
	eng, err := build(c.ds, opts)
	if err != nil {
		return nil, err
	}
	return &Index{eng: eng}, nil
}

// New indexes the collection, configured by functional options:
//
//	idx, err := setcontain.New(c, setcontain.WithKind(setcontain.OIF),
//		setcontain.WithCachePages(64))
func New(c *Collection, opts ...Option) (*Index, error) {
	return Build(c, NewOptions(opts...))
}

// IndexOver wraps an existing engine. The engine is used as-is; callers
// that built it with EngineOf keep full ownership of its pools.
func IndexOver(e Engine) *Index { return &Index{eng: e} }

// Engine returns the backing engine.
func (ix *Index) Engine() Engine { return ix.eng }

// Kind returns the index implementation in use.
func (ix *Index) Kind() Kind { return ix.eng.Kind() }

// NumRecords returns the number of indexed records, pending inserts
// included.
func (ix *Index) NumRecords() int { return ix.eng.NumRecords() }

// Subset returns ids of records whose sets contain every item of qs.
func (ix *Index) Subset(qs []Item) ([]uint32, error) { return ix.eng.Subset(qs) }

// Equality returns ids of records whose sets equal qs.
func (ix *Index) Equality(qs []Item) ([]uint32, error) { return ix.eng.Equality(qs) }

// Superset returns ids of records whose sets are contained in qs.
func (ix *Index) Superset(qs []Item) ([]uint32, error) { return ix.eng.Superset(qs) }

// Eval answers a first-class Query.
func (ix *Index) Eval(q Query) ([]uint32, error) { return q.Eval(ix.eng) }

// ErrNoUpdates reports an engine without update support.
var ErrNoUpdates = errors.New("setcontain: engine does not support updates")

// Insert adds a record to the engine's in-memory delta (visible to
// queries immediately) and returns its id. Supported by OIF,
// InvertedFile, and Sharded; call MergeDelta to fold the delta into the
// disk structures.
func (ix *Index) Insert(set []Item) (uint32, error) { return ix.eng.Insert(set) }

// Delete tombstones the record with the given id: it disappears from
// every subsequent answer immediately, its postings are physically
// removed from the disk lists by the next MergeDelta, and its id is
// never reused. Supported by the engines that support Insert. Readers
// created before the delete (including a Store's pooled readers) still
// serve their original snapshot — call Store.Refresh after deleting,
// exactly as after Insert.
func (ix *Index) Delete(id uint32) error { return ix.eng.Delete(id) }

// Deleted returns the number of tombstoned records.
func (ix *Index) Deleted() int { return ix.eng.Deleted() }

// MergeDelta folds pending inserts and tombstones into the disk
// structures: a cheap list append (plus a list rewrite when deletions
// are pending) for InvertedFile, a full re-sort and rebuild for OIF
// (§4.4 of the paper).
//
// Merging swaps the engine's page file, so a fresh query cache of the
// same capacity is attached afterwards. The fresh cache is seeded with
// the pre-merge counters, so CacheStats and DecodedCacheStats stay
// cumulative across merges; the cache contents start cold either way.
// Create new Readers (or call Store.Refresh) so parallel handles see
// the merged records.
func (ix *Index) MergeDelta() error { return ix.eng.MergeDelta() }

// PendingInserts returns the number of unmerged inserts.
func (ix *Index) PendingInserts() int { return ix.eng.PendingInserts() }

// ErrNoSnapshots reports an engine without snapshot support.
var ErrNoSnapshots = errors.New("setcontain: engine does not support snapshots")

// Save writes a self-contained, self-describing snapshot of the index:
// a container header naming the engine kind followed by the engine's
// own versioned payload (pages or lists, ordering, metadata, pending
// inserts, tombstones), guarded by CRC trailers. Open reconstructs the
// index from it without the original dataset. Supported by OIF,
// InvertedFile, and Sharded; the UBT ablation rebuilds quickly from its
// collection and does not snapshot.
func (ix *Index) Save(w io.Writer) error { return ix.eng.Save(w) }

// CacheStats reports the index's I/O behaviour since the last reset.
// Counters are cumulative across MergeDelta: the post-merge cache is
// seeded with the pre-merge totals.
type CacheStats struct {
	Hits       int64 // page requests served from cache
	PageReads  int64 // pages fetched from storage ("disk page accesses")
	Sequential int64 // reads of physically adjacent pages
	Near       int64 // short-jump reads
	Random     int64 // full-seek reads
}

// CacheStats returns accumulated statistics.
func (ix *Index) CacheStats() CacheStats { return ix.eng.Stats() }

// ResetCacheStats zeroes the statistics (the cache contents remain).
func (ix *Index) ResetCacheStats() { ix.eng.ResetStats() }

// DecodedCacheStats reports the decoded-block cache's effectiveness:
// how many inverted-list block visits were served in already-decoded
// form (Hits) versus decoded from page bytes (Misses), and what the
// skew-aware admission policy did with the decoded blocks. All fields
// are zero for engines without a decoded cache (IF, UBT, or an OIF
// built with WithDecodedCache(-1)).
type DecodedCacheStats struct {
	Hits     int64 // block visits served without decoding
	Misses   int64 // block visits that decoded from page bytes
	Admitted int64 // decoded blocks copied into the cache
	Rejected int64 // decoded blocks denied admission (colder than residents)
	Evicted  int64 // cached blocks displaced by hotter arrivals
	Postings int   // postings currently cached
	Capacity int   // maximum postings (summed across shards)
}

// HitRate returns Hits / (Hits + Misses), or 0 before any block visit.
func (s DecodedCacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// add sums two snapshots (used to aggregate shard caches).
func (s DecodedCacheStats) add(t DecodedCacheStats) DecodedCacheStats {
	return DecodedCacheStats{
		Hits:     s.Hits + t.Hits,
		Misses:   s.Misses + t.Misses,
		Admitted: s.Admitted + t.Admitted,
		Rejected: s.Rejected + t.Rejected,
		Evicted:  s.Evicted + t.Evicted,
		Postings: s.Postings + t.Postings,
		Capacity: s.Capacity + t.Capacity,
	}
}

func decodedStatsOf(s core.DecodedCacheStats) DecodedCacheStats {
	return DecodedCacheStats{
		Hits:     s.Hits,
		Misses:   s.Misses,
		Admitted: s.Admitted,
		Rejected: s.Rejected,
		Evicted:  s.Evicted,
		Postings: s.Postings,
		Capacity: s.Capacity,
	}
}

// decodedStatser is the optional engine/reader surface behind
// DecodedCacheStats.
type decodedStatser interface {
	DecodedStats() DecodedCacheStats
}

// DecodedCacheStats returns the engine's decoded-block cache statistics
// (the engine's own cache only — Readers carry private caches, reported
// by Reader.DecodedCacheStats).
func (ix *Index) DecodedCacheStats() DecodedCacheStats {
	if ds, ok := ix.eng.(decodedStatser); ok {
		return ds.DecodedStats()
	}
	return DecodedCacheStats{}
}

// AppendSubset appends Subset's answer to dst and returns the extended
// slice — the zero-allocation form: on an OIF engine with warm page and
// decoded caches, the query reuses per-engine scratch arenas throughout
// and allocates nothing beyond dst's capacity. Existing dst contents
// are preserved; only the appended region is sorted. Engines without an
// append-form backend fall back to the plain call plus a copy.
func (ix *Index) AppendSubset(dst []uint32, qs []Item) ([]uint32, error) {
	return SubsetQuery(qs).EvalAppend(dst, ix.eng)
}

// AppendEquality appends Equality's answer to dst; see AppendSubset.
func (ix *Index) AppendEquality(dst []uint32, qs []Item) ([]uint32, error) {
	return EqualityQuery(qs).EvalAppend(dst, ix.eng)
}

// AppendSuperset appends Superset's answer to dst; see AppendSubset.
func (ix *Index) AppendSuperset(dst []uint32, qs []Item) ([]uint32, error) {
	return SupersetQuery(qs).EvalAppend(dst, ix.eng)
}

// NewReader creates a parallel query handle with its own cache of
// cachePages pages (0 selects the default 32 KB). The reader shares the
// index's immutable pages but owns its cache, so one reader per
// goroutine queries in parallel; readers see the inserts that existed
// when they were created and never the later ones.
func (ix *Index) NewReader(cachePages int) (*Reader, error) {
	return ix.eng.NewReader(cachePages)
}
