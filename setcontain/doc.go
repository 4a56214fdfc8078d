// Package setcontain answers set-containment queries — subset, equality,
// and superset — over collections of set-valued records, implementing the
// Ordered Inverted File (OIF) of Terrovitis, Bouros, Vassiliadis, Sellis
// and Mamoulis, "Efficient Answering of Set Containment Queries for Skewed
// Item Distributions" (EDBT 2011), together with the paper's baselines.
//
// A Collection holds records (sets of uint32 items over a fixed
// vocabulary). Build creates an index over it:
//
//	c := setcontain.NewCollection(1000)
//	c.Add([]setcontain.Item{3, 17, 29})
//	idx, err := setcontain.New(c, setcontain.WithKind(setcontain.OIF))
//	ids, err := idx.Subset([]setcontain.Item{3, 29}) // records ⊇ {3,29}
//
// # Engines
//
// Every index kind is an Engine: a pluggable backend implementing the
// uniform query/update interface. Four engines are registered: OIF (the
// paper's contribution, default), InvertedFile (the classic baseline),
// UnorderedBTree (the paper's ablation), and Sharded (records
// hash-partitioned across N inner engines built in parallel, each
// chosen per shard by item-frequency skew, with queries fanned out and
// merged in global id order — see WithShards). All answer the same
// queries with identical results; they differ in I/O behaviour, which
// CacheStats exposes. Kind and Options form the registry that selects
// an engine; Index is a thin convenience wrapper around one.
//
// # Queries
//
// A Query pairs a Predicate with its items and evaluates against any
// Queryable (an Index, a Reader, or an Engine):
//
//	q := setcontain.Query{Pred: setcontain.PredicateSubset, Items: items}
//	ids, err := q.Eval(idx)
//
// Query.EvalSeq (and Store.ExecSeq) return the answer as a lazy
// iter.Seq[uint32] for callers that stream rather than materialize, and
// the Append… variants write answers into a caller-owned slice on the
// zero-allocation hot path. Query.String and ParseQuery round-trip the
// textual form ("subset{3 17 29}") the CLIs and the serve package's
// wire format use.
//
// # Concurrency
//
// An Index is not safe for concurrent use — queries share a buffer pool
// whose cache state they mutate, mirroring the paper's single-stream
// evaluation. For parallel traffic either create one Reader per goroutine
// with NewReader, or use a Store: a concurrency-safe facade that pools
// readers internally and honours context cancellation:
//
//	st := setcontain.NewStore(idx, 0)
//	ids, err := st.Exec(ctx, q)
//
// Store.ExecBatchAppend additionally answers many queries on one pooled
// reader — the fan-in form the setcontain/serve package's micro-batcher
// dispatches through.
//
// # Durability and mutation
//
// The OIF is a disk-resident structure, and the package treats indexes
// as restartable state. Index.Save writes a self-describing snapshot
// container — engine kind, build options, pages or lists, pending
// inserts, and tombstones, CRC-guarded throughout — and Open
// reconstructs the right engine from it without the original dataset:
//
//	err := idx.Save(f)
//	restored, err := setcontain.Open(f)
//
// Collections evolve in place: Insert adds records to a memory delta
// (visible immediately), Delete tombstones them (masked immediately,
// ids never reused), and MergeDelta folds both into the disk structures
// — postings of deleted records are physically removed, while
// CacheStats/DecodedCacheStats carry across the merge cumulatively.
// OIF, InvertedFile, and Sharded support the full lifecycle; the UBT
// ablation answers queries only.
package setcontain
