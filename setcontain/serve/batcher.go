package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/setcontain"
)

// ErrSaturated reports that the batcher's admission bound
// (Config.MaxPending queued queries) is reached; the server maps it to
// HTTP 429. Callers should shed or retry with backoff rather than
// block.
var ErrSaturated = errors.New("serve: query queue saturated")

// ErrClosed reports a query submitted to a closed batcher.
var ErrClosed = errors.New("serve: batcher closed")

// Config tunes the serving layer. The zero value selects the documented
// defaults; Filled returns a copy with them applied.
type Config struct {
	// MaxBatch caps the queries coalesced into one dispatch through
	// Store.ExecBatchAppend (default 64).
	MaxBatch int
	// MaxPending bounds queued-but-undispatched queries; beyond it
	// DoExprLimit fails fast with ErrSaturated (default 4×MaxBatch).
	MaxPending int
	// Dispatchers is the number of concurrent batch executors, each
	// driving one pooled Store reader at a time (default GOMAXPROCS).
	// Fewer dispatchers under load mean larger batches.
	Dispatchers int
	// ChunkIDs caps the ids carried by one NDJSON response line
	// (default 4096); smaller chunks flush sooner.
	ChunkIDs int
	// Durable, when set, routes the /admin mutation endpoints through
	// the write-ahead-logged mutation path: a mutation is acknowledged
	// only once its log record is durable per the WAL's fsync policy,
	// POST /admin/checkpoint becomes available, and /stats and /healthz
	// report the WAL's state. The store handed to NewServer must be
	// Durable.Store(). Nil serves the plain in-memory mutation path.
	Durable *setcontain.Durable
}

// DefaultConfig is the zero Config with every default applied.
func DefaultConfig() Config { return Config{}.Filled() }

// Filled returns the config with unset fields replaced by their
// documented defaults.
func (c Config) Filled() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * c.MaxBatch
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = runtime.GOMAXPROCS(0)
	}
	if c.ChunkIDs <= 0 {
		c.ChunkIDs = 4096
	}
	return c
}

// waiter carries one query through the batcher: the request fields its
// submitter fills, and the result fields the dispatcher publishes
// before signalling done. Waiters recycle through a sync.Pool, so the
// warm path submits and completes queries without allocating.
type waiter struct {
	ctx   context.Context
	expr  *setcontain.Expr
	limit int
	dst   []uint32

	out  []uint32
	err  error
	done chan struct{} // capacity 1; recycled with the waiter
}

// finish publishes the result and signals the submitter. The send never
// blocks: a submitter that gave up leaves the buffered slot unread.
func (w *waiter) finish(out []uint32, err error) {
	w.out, w.err = out, err
	select {
	case w.done <- struct{}{}:
	default:
	}
}

// Batcher coalesces concurrent queries into micro-batches dispatched
// through Store.ExecBatchAppend. Create one with NewBatcher; submit
// with DoExprLimit; stop with Close. All methods are safe for
// concurrent use.
type Batcher struct {
	store *setcontain.Store
	cfg   Config

	reqCh   chan *waiter
	waiters sync.Pool
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	closed  atomic.Bool

	queries  atomic.Int64
	batches  atomic.Int64
	rejected atomic.Int64
	canceled atomic.Int64
	hist     []atomic.Int64 // hist[i] counts dispatches of size i+1
}

// NewBatcher starts cfg.Dispatchers dispatcher goroutines over store.
// Close releases them.
func NewBatcher(store *setcontain.Store, cfg Config) *Batcher {
	cfg = cfg.Filled()
	b := &Batcher{
		store: store,
		cfg:   cfg,
		reqCh: make(chan *waiter, cfg.MaxPending),
		hist:  make([]atomic.Int64, cfg.MaxBatch),
	}
	b.ctx, b.cancel = context.WithCancel(context.Background())
	b.wg.Add(cfg.Dispatchers)
	for i := 0; i < cfg.Dispatchers; i++ {
		go b.run()
	}
	return b
}

// Close stops the dispatchers, failing any still-queued queries with
// ErrClosed, and waits for them to exit. Queries submitted after Close
// fail with ErrClosed.
func (b *Batcher) Close() {
	b.closed.Store(true)
	b.cancel()
	b.wg.Wait()
}

// DoExprLimit submits one boolean expression and blocks until its batch
// executes or ctx ends. The answer — truncated to its first `limit` ids
// with early-exit evaluation (0 means no limit, negative fails with
// setcontain.ErrNegativeLimit) — is appended to dst and the extended
// slice returned, as by Store.ExecExprLimitAppend; a plain query is the
// one-leaf setcontain.ExprOf(q). The execution is shared: the query
// rides whatever micro-batch the dispatchers form around it, where hot
// lists decode once per batch and subtrees shared across the batch
// evaluate once (the cross-query subexpression cache).
//
// Ownership of dst transfers to the batcher for the duration of the
// call, and the returned slice tells the caller whether it came back:
// a non-nil return (every normal completion, including query errors —
// the untouched dst is handed back then) supersedes dst and is the
// caller's again; a nil return means DoExprLimit gave up waiting (ctx
// ended, or the batcher closed) while a dispatcher may still be
// writing into dst — the buffer is forfeited and must not be reused.
func (b *Batcher) DoExprLimit(ctx context.Context, dst []uint32, e *setcontain.Expr, limit int) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if b.closed.Load() {
		return dst, ErrClosed
	}
	w, _ := b.waiters.Get().(*waiter)
	if w == nil {
		w = &waiter{done: make(chan struct{}, 1)}
	}
	w.ctx, w.expr, w.limit, w.dst = ctx, e, limit, dst
	select {
	case b.reqCh <- w:
	default:
		b.recycle(w)
		b.rejected.Add(1)
		return dst, ErrSaturated
	}
	select {
	case <-w.done:
		out, err := w.out, w.err
		if out == nil {
			// Failed item: the dispatcher never extended dst, so hand
			// the caller's buffer back with the error.
			out = dst
		}
		b.recycle(w)
		return out, err
	case <-ctx.Done():
		// The dispatcher still owns w (it will signal the buffered done
		// channel into the void); the waiter and dst are forfeited.
		b.canceled.Add(1)
		return nil, ctx.Err()
	case <-b.ctx.Done():
		// Close raced an admitted query: a dispatcher may still be
		// executing it against dst — forfeited, like the ctx path.
		return nil, ErrClosed
	}
}

func (b *Batcher) recycle(w *waiter) {
	w.ctx, w.expr, w.limit = nil, nil, 0
	w.dst, w.out, w.err = nil, nil, nil
	b.waiters.Put(w)
}

// run is one dispatcher: collect a batch, execute it, publish results.
// items is the dispatcher's reusable Store.ExecBatchAppend arena.
func (b *Batcher) run() {
	defer b.wg.Done()
	batch := make([]*waiter, 0, b.cfg.MaxBatch)
	items := make([]setcontain.BatchItem, b.cfg.MaxBatch)
	timer := time.NewTimer(batchWindow)
	timer.Stop()
	for {
		select {
		case <-b.ctx.Done():
			b.drain()
			return
		case w := <-b.reqCh:
			batch = append(batch, w)
		}
		batch = b.fill(batch, timer)
		b.exec(batch, items[:len(batch)])
		batch = batch[:0]
	}
}

// batchWindow bounds how long a dispatcher holding a short batch waits
// for more arrivals before it executes. Without it, read capacity at
// the SLO is CPU-bound and varies too much from run to run on a 2-vCPU
// machine for the end-to-end benchmark to measure (docs/BENCHMARKS.md,
// "Why the batch window stays").
const batchWindow = 500 * time.Microsecond

// fill adds the queries already queued, up to MaxBatch, then — while
// the batch is still short — whatever arrives within batchWindow.
// timer is the dispatcher's own, stopped between calls.
func (b *Batcher) fill(batch []*waiter, timer *time.Timer) []*waiter {
	batch = b.takeQueued(batch)
	if len(batch) == b.cfg.MaxBatch {
		return batch
	}
	timer.Reset(batchWindow)
	for len(batch) < b.cfg.MaxBatch {
		select {
		case w := <-b.reqCh:
			batch = append(batch, w)
		case <-timer.C:
			return batch
		case <-b.ctx.Done():
			timer.Stop()
			return batch
		}
	}
	timer.Stop()
	return batch
}

func (b *Batcher) takeQueued(batch []*waiter) []*waiter {
	for len(batch) < b.cfg.MaxBatch {
		select {
		case w := <-b.reqCh:
			batch = append(batch, w)
		default:
			return batch
		}
	}
	return batch
}

// exec dispatches the batch through one Store.ExecBatchAppend call and
// publishes each waiter's result. The counters advance before any
// waiter is signalled, so /stats never lags a response it describes.
func (b *Batcher) exec(batch []*waiter, items []setcontain.BatchItem) {
	for i, w := range batch {
		items[i] = setcontain.BatchItem{Ctx: w.ctx, Expr: w.expr, Limit: w.limit, Dst: w.dst}
	}
	processed, err := b.store.ExecBatchAppend(b.ctx, items)
	if err != nil && b.closed.Load() {
		err = ErrClosed
	}
	b.queries.Add(int64(len(batch)))
	b.batches.Add(1)
	b.hist[len(batch)-1].Add(1)
	for i, w := range batch {
		if i < processed {
			w.finish(items[i].Out, items[i].Err)
		} else {
			w.finish(nil, err)
		}
		items[i] = setcontain.BatchItem{} // drop buffer references
	}
}

// drain fails every still-queued query with ErrClosed after Close.
func (b *Batcher) drain() {
	for {
		select {
		case w := <-b.reqCh:
			w.finish(nil, ErrClosed)
		default:
			return
		}
	}
}

// BatcherStats is a snapshot of the batcher's dispatch behaviour; the
// batch-size histogram is how a load test verifies coalescing actually
// engages (a mean above 1 under concurrent traffic).
type BatcherStats struct {
	// Queries is the total queries dispatched (admitted and executed).
	Queries int64
	// Batches is the total dispatches; Queries/Batches is the mean
	// batch size, also available as MeanBatch.
	Batches int64
	// Rejected counts queries refused at admission with ErrSaturated.
	Rejected int64
	// Canceled counts DoExprLimit calls abandoned by their caller's context
	// while queued or executing.
	Canceled int64
	// Pending is the queries queued awaiting dispatch at snapshot time
	// (a gauge; admission refuses beyond Config.MaxPending).
	Pending int
	// BatchSizes is the dispatch histogram: BatchSizes[i] batches
	// carried exactly i+1 queries.
	BatchSizes []int64
}

// MeanBatch returns the mean queries per dispatch, 0 before the first.
func (s BatcherStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Queries) / float64(s.Batches)
}

// Stats returns a consistent-enough snapshot of the counters (each
// counter is read atomically; the set is not a single atomic cut).
func (b *Batcher) Stats() BatcherStats {
	st := BatcherStats{
		Queries:    b.queries.Load(),
		Batches:    b.batches.Load(),
		Rejected:   b.rejected.Load(),
		Canceled:   b.canceled.Load(),
		Pending:    len(b.reqCh),
		BatchSizes: make([]int64, len(b.hist)),
	}
	for i := range b.hist {
		st.BatchSizes[i] = b.hist[i].Load()
	}
	return st
}
