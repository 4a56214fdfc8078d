package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// serveCollection builds a skewed synthetic collection big enough to
// exercise multi-block lists but quick to index in a unit test.
func serveCollection(t testing.TB) *setcontain.Collection {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 6000,
		DomainSize: 300,
		MinLen:     2,
		MaxLen:     14,
		ZipfTheta:  0.9,
		Seed:       23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return setcontain.WrapDataset(d)
}

// serveQueries draws a deterministic mixed workload whose items follow
// the records' own skew.
func serveQueries(t testing.TB, c *setcontain.Collection, count int) []setcontain.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	preds := []setcontain.Predicate{
		setcontain.PredicateSubset,
		setcontain.PredicateEquality,
		setcontain.PredicateSuperset,
	}
	var qs []setcontain.Query
	for len(qs) < count {
		set, err := c.Record(uint32(1 + rng.Intn(c.Len())))
		if err != nil {
			t.Fatal(err)
		}
		if len(set) < 2 {
			continue
		}
		k := 2 + rng.Intn(len(set)-1)
		items := append([]setcontain.Item(nil), set...)
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		items = items[:k]
		qs = append(qs, setcontain.Query{Pred: preds[len(qs)%len(preds)], Items: items})
	}
	return qs
}

func newTestStore(t testing.TB, opts ...setcontain.Option) (*setcontain.Collection, *setcontain.Index, *setcontain.Store) {
	t.Helper()
	c := serveCollection(t)
	idx, err := setcontain.New(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, idx, setcontain.NewStore(idx, 0)
}

// TestBatcherAnswersMatchStore checks concurrent queries through the
// batcher return exactly the Store's direct answers.
func TestBatcherAnswersMatchStore(t *testing.T) {
	c, _, store := newTestStore(t)
	// MaxPending must cover the 60 simultaneous submissions below —
	// admission control is exercised separately in TestBatcherSaturation.
	b := serve.NewBatcher(store, serve.Config{MaxBatch: 8, MaxPending: 128})
	defer b.Close()

	queries := serveQueries(t, c, 60)
	want := make([][]uint32, len(queries))
	for i, q := range queries {
		ids, err := store.Exec(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	got := make([][]uint32, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q setcontain.Query) {
			defer wg.Done()
			got[i], errs[i] = b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(q), 0)
		}(i, q)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d %v: %v", i, queries[i], errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d %v: %d ids via batcher, %d direct", i, queries[i], len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d %v: id[%d] = %d via batcher, %d direct", i, queries[i], j, got[i][j], want[i][j])
			}
		}
	}
}

// TestBatcherCoalesces drives concurrent clients into a single
// dispatcher and checks micro-batching actually engages: the dispatch
// histogram must record batches above size one.
func TestBatcherCoalesces(t *testing.T) {
	c, _, store := newTestStore(t)
	b := serve.NewBatcher(store, serve.Config{
		MaxBatch:    16,
		Dispatchers: 1,
	})
	defer b.Close()

	queries := serveQueries(t, c, 24)
	const clients = 16
	const rounds = 20
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []uint32
			for r := 0; r < rounds; r++ {
				q := queries[(w*rounds+r)%len(queries)]
				out, err := b.DoExprLimit(context.Background(), buf[:0], setcontain.ExprOf(q), 0)
				if err != nil {
					t.Error(err)
					return
				}
				buf = out
			}
		}(w)
	}
	wg.Wait()

	st := b.Stats()
	if st.Queries != clients*rounds {
		t.Fatalf("dispatched %d queries, want %d", st.Queries, clients*rounds)
	}
	if st.MeanBatch() <= 1 {
		t.Errorf("mean batch size %.2f with %d concurrent clients, want > 1 (hist %v)",
			st.MeanBatch(), clients, st.BatchSizes)
	}
	multi := int64(0)
	for i, n := range st.BatchSizes {
		if i > 0 {
			multi += n
		}
	}
	if multi == 0 {
		t.Errorf("no batch larger than one query recorded: hist %v", st.BatchSizes)
	}
}

// TestBatcherStatsNeverLag pins the accounting order: the dispatcher
// counts a batch before it signals any waiter, so a caller reading
// Stats right after its own DoExprLimit returned always sees that
// query counted.
func TestBatcherStatsNeverLag(t *testing.T) {
	c, _, store := newTestStore(t)
	b := serve.NewBatcher(store, serve.Config{})
	defer b.Close()
	for i, q := range serveQueries(t, c, 50) {
		if _, err := b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(q), 0); err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.Queries != int64(i+1) {
			t.Fatalf("after %d sequential queries Stats().Queries = %d", i+1, st.Queries)
		}
		if st.Batches != int64(i+1) {
			t.Fatalf("after %d sequential queries Stats().Batches = %d", i+1, st.Batches)
		}
	}

	// Concurrent callers widen the window a wrong order would open: a
	// batch signals many waiters, and each checks that every answer
	// returned so far is already counted.
	queries := serveQueries(t, c, 16)
	base := b.Stats().Queries
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				q := queries[(w+r)%len(queries)]
				if _, err := b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(q), 0); err != nil {
					t.Error(err)
					return
				}
				done := completed.Add(1)
				if got := b.Stats().Queries - base; got < done {
					t.Errorf("%d answers returned, Stats counts %d", done, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// blockingCtx is a context whose Err blocks from its second call until
// the gate closes — it parks the dispatcher mid-batch (the pre-check
// before executing the query consults Err), holding the admission queue
// full so saturation behaviour is testable deterministically even on
// one core. The first call passes so Do's own entry check does not
// block the submitter.
type blockingCtx struct {
	context.Context
	calls atomic.Int64
	gate  chan struct{}
	done  chan struct{}
}

func newBlockingCtx() *blockingCtx {
	return &blockingCtx{Context: context.Background(), gate: make(chan struct{}), done: make(chan struct{})}
}

func (c *blockingCtx) Done() <-chan struct{} { return c.done }

func (c *blockingCtx) Err() error {
	if c.calls.Add(1) > 1 {
		<-c.gate
	}
	return nil
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherSaturation parks the only dispatcher mid-batch, fills the
// one-slot admission queue, and checks every further query is shed
// with ErrSaturated instead of queued unboundedly — then releases the
// dispatcher and checks the queued work drains normally.
func TestBatcherSaturation(t *testing.T) {
	c, _, store := newTestStore(t)
	b := serve.NewBatcher(store, serve.Config{
		MaxBatch:    1,
		MaxPending:  1,
		Dispatchers: 1,
	})
	defer b.Close()

	queries := serveQueries(t, c, 8)
	gate := newBlockingCtx()
	var wg sync.WaitGroup
	var served, saturated atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.DoExprLimit(gate, nil, setcontain.ExprOf(queries[0]), 0); err != nil {
			t.Errorf("gated query: %v", err)
			return
		}
		served.Add(1)
	}()
	// The dispatcher is parked once it consults the gate context's Err.
	waitFor(t, "dispatcher to park on the gate", func() bool { return gate.calls.Load() >= 2 })

	// With the dispatcher parked, the queue holds exactly MaxPending=1
	// query; every other submission must shed.
	const flood = 8
	for w := 0; w < flood; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, err := b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(queries[1+w%4]), 0)
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, serve.ErrSaturated):
				saturated.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(w)
	}
	waitFor(t, "floods to shed", func() bool { return saturated.Load() >= flood-1 })
	close(gate.gate)
	wg.Wait()

	if got := served.Load(); got != 2 {
		t.Errorf("served %d queries, want 2 (the gated one and the one queued slot)", got)
	}
	if got := saturated.Load(); got != flood-1 {
		t.Errorf("shed %d queries, want %d", got, flood-1)
	}
	if got := b.Stats().Rejected; got != saturated.Load() {
		t.Errorf("stats.Rejected = %d, callers saw %d ErrSaturated", got, saturated.Load())
	}
}

// countdownCtx is a context whose Err flips to context.Canceled after
// a fixed number of Err calls — a deterministic stand-in for a client
// disconnecting mid-execution. Its non-nil Done channel (never closed)
// makes the Store arm its interrupt hook, which consults Err between
// list-block reads.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
	done  chan struct{}
}

func newCountdownCtx(after int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestBatcherCancelMidExecution proves a query cancelled *during*
// execution stops the underlying Store work: the request context's
// error surfaces through the reader's interrupt hook between
// list-block reads, and batchmates are unaffected.
func TestBatcherCancelMidExecution(t *testing.T) {
	_, _, store := newTestStore(t, setcontain.WithPageSize(512), setcontain.WithBlockPostings(8))
	b := serve.NewBatcher(store, serve.Config{Dispatchers: 1})
	defer b.Close()

	// A wide superset query walks one inverted list per query item, so
	// the interrupt hook is consulted many times mid-query.
	wide := make([]setcontain.Item, 40)
	for i := range wide {
		wide[i] = setcontain.Item(i)
	}
	q := setcontain.SupersetQuery(wide)

	ctx := newCountdownCtx(4)
	_, err := b.DoExprLimit(ctx, nil, setcontain.ExprOf(q), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-execution cancel: got %v, want context.Canceled", err)
	}
	if calls := ctx.calls.Load(); calls <= 4 {
		t.Fatalf("interrupt hook consulted %d times; cancellation did not fire mid-execution", calls)
	}

	// The batcher stays healthy: the same query on a live context
	// answers normally.
	if _, err := b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(q), 0); err != nil {
		t.Fatalf("query after cancelled batchmate: %v", err)
	}
}

// TestBatcherClosed checks Close fails queued and future queries with
// ErrClosed and is safe to call twice.
func TestBatcherClosed(t *testing.T) {
	c, _, store := newTestStore(t)
	b := serve.NewBatcher(store, serve.Config{})
	q := serveQueries(t, c, 1)[0]
	if _, err := b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(q), 0); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, err := b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(q), 0); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("DoExprLimit after Close: got %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// TestBatcherZeroAllocs is the serving-core allocation gate: a
// steady-state query through DoExprLimit — waiter recycling, batch dispatch,
// Store.ExecBatchAppend, answer append — must not allocate beyond the
// caller's request decode/encode.
func TestBatcherZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	c, idx, _ := newTestStore(t, setcontain.WithKind(setcontain.OIF), setcontain.WithCachePages(2048))
	store := setcontain.NewStore(idx, 2048)
	b := serve.NewBatcher(store, serve.Config{
		Dispatchers: 1,
	})
	defer b.Close()

	queries := serveQueries(t, c, 20)
	exprs := make([]*setcontain.Expr, len(queries))
	for i, q := range queries {
		exprs[i] = setcontain.ExprOf(q)
	}
	ctx := context.Background()
	// Warm: caches, arenas, waiter pool, and the answer buffer reach
	// their high-water marks.
	dst := make([]uint32, 0, 64)
	var err error
	for pass := 0; pass < 3; pass++ {
		for _, e := range exprs {
			if dst, err = b.DoExprLimit(ctx, dst[:0], e, 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i, q := range queries {
		e := exprs[i]
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			dst, err = b.DoExprLimit(ctx, dst[:0], e, 0)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %.2f allocs per steady-state batched query, want 0", q, allocs)
		}
	}
}
