package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"repro/setcontain"
	"repro/setcontain/serve"
)

// ladderInserts is how many inserts a traced ingest-durable run sends
// straight to Durable.InsertSets.
const ladderInserts = 50

// counters is a snapshot of the program's own statistics, summed over
// the stack's stores.
type counters struct {
	batch serve.BatcherStats
	expr  setcontain.ExprStats
	store setcontain.StoreStats
}

func (b *bench) counters() counters {
	c := counters{batch: b.st.front.Batcher().Stats(), expr: b.st.store.ExprStats()}
	for _, s := range b.st.stores {
		st := s.Stats()
		c.store.Cache.Hits += st.Cache.Hits
		c.store.Cache.PageReads += st.Cache.PageReads
		c.store.Cache.Random += st.Cache.Random
		c.store.Decoded.Hits += st.Decoded.Hits
		c.store.Decoded.Misses += st.Decoded.Misses
		c.store.Decoded.Evicted += st.Decoded.Evicted
	}
	return c
}

// tracedPhases is the traced run: untraced low- and high-rate phases as
// the reference (they give the read p99s), the same two phases with
// tracing on (their counter deltas give the per-layer ratios), then the
// layer ladder.
func (b *bench) tracedPhases() error {
	b.startWrites()
	ref := b.phase(b.w.lowRate, b.seconds(0.2))
	refHigh := b.phase(b.w.highRate, b.seconds(0.15))
	b.set("read_p99_ms.low", ms(quantile(ref.lat, 0.99)))
	b.set("read_p99_ms.high", ms(quantile(refHigh.lat, 0.99)))
	if b.writes != nil {
		b.writes.ackTo = time.Since(epoch)
	}
	b.maintenancePhase(b.seconds(0.15))
	b.tr.enabled.Store(true)
	before := b.counters()
	low := b.phase(b.w.lowRate, b.seconds(0.2))
	high := b.phase(b.w.highRate, b.seconds(0.15))
	after := b.counters()
	b.stopWrites()
	b.set("trace.overhead_ratio", ratio(float64(quantile(low.lat, 0.5)), float64(quantile(ref.lat, 0.5))))
	b.layerCounters(before, after, len(low.lat)+len(high.lat), low.ids+high.ids)
	return b.ladder()
}

// layerCounters turns counter deltas over the traced load into the
// batcher, planner and engine ratios.
func (b *bench) layerCounters(c0, c1 counters, reads int, ids int64) {
	q := float64(c1.batch.Queries - c0.batch.Queries)
	batches := float64(c1.batch.Batches - c0.batch.Batches)
	rejected := float64(c1.batch.Rejected - c0.batch.Rejected)
	b.set("batcher.mean_batch", ratio(q, batches))
	b.set("batcher.rejected_rate", ratio(rejected, q+rejected))
	b.set("batcher.canceled", float64(c1.batch.Canceled-c0.batch.Canceled))

	exprs := float64(c1.expr.Expressions - c0.expr.Expressions)
	evaluated := float64(c1.expr.EvaluatedLeaves - c0.expr.EvaluatedLeaves)
	skipped := float64(c1.expr.SkippedLeaves - c0.expr.SkippedLeaves)
	hits := float64(c1.expr.CSEHits - c0.expr.CSEHits)
	misses := float64(c1.expr.CSEMisses - c0.expr.CSEMisses)
	b.set("planner.leaves_per_expr", ratio(evaluated, exprs))
	b.set("planner.skipped_leaf_rate", ratio(skipped, evaluated+skipped))
	b.set("planner.streamed_leaf_rate", ratio(float64(c1.expr.StreamedLeaves-c0.expr.StreamedLeaves), evaluated))
	b.set("cse.hit_rate", ratio(hits, hits+misses))
	b.set("cse.saved_leaves_per_expr", ratio(float64(c1.expr.CSESavedLeaves-c0.expr.CSESavedLeaves), exprs))

	pages := float64(c1.store.Cache.PageReads - c0.store.Cache.PageReads)
	pageHits := float64(c1.store.Cache.Hits - c0.store.Cache.Hits)
	decHits := float64(c1.store.Decoded.Hits - c0.store.Decoded.Hits)
	decMisses := float64(c1.store.Decoded.Misses - c0.store.Decoded.Misses)
	b.set("engine.pages_per_query", ratio(pages, q))
	b.set("engine.page_hit_rate", ratio(pageHits, pageHits+pages))
	b.set("engine.random_read_share", ratio(float64(c1.store.Cache.Random-c0.store.Cache.Random), pages))
	b.set("engine.decoded_hit_rate", ratio(decHits, decHits+decMisses))
	b.set("engine.decoded_evictions_per_query", ratio(float64(c1.store.Decoded.Evicted-c0.store.Decoded.Evicted), q))
	b.set("engine.ids_per_query", perQuery(float64(ids), reads))
}

// rung is one ladder step's per-request latencies, indexed like the
// pool; -1 marks a request the rung does not apply to.
type rung []time.Duration

func newRung(n int) rung {
	r := make(rung, n)
	for i := range r {
		r[i] = -1
	}
	return r
}

// self returns the per-request differences upper − lower over the
// requests both rungs measured, sorted.
func self(upper, lower rung) []time.Duration {
	var out []time.Duration
	for i := range upper {
		if upper[i] >= 0 && lower[i] >= 0 {
			out = append(out, upper[i]-lower[i])
		}
	}
	sortDurations(out)
	return out
}

func (r rung) sorted() []time.Duration {
	var out []time.Duration
	for _, d := range r {
		if d >= 0 {
			out = append(out, d)
		}
	}
	sortDurations(out)
	return out
}

// check counts one ladder request in the run's totals.
func (b *bench) check(err error) {
	t := tally{attempted: 1}
	if err != nil {
		t.failed, t.firstErr = 1, err
		if err == errWrong {
			t.wrong = 1
		}
	}
	b.all.add(t)
}

func checkIDs(ids []uint32, want digest) error {
	if digestOf(ids) != want {
		return errWrong
	}
	return nil
}

// ladder replays every pool request, one at a time, down the layers:
// loopback HTTP, Handler().ServeHTTP in process, Batcher().DoExprLimit,
// the Store, and (single-leaf requests) one index Reader per engine. A
// rung's self time is its latency minus the rung below's, per request.
func (b *bench) ladder() error {
	n := len(b.pool)
	ctx := context.Background()
	httpR, handlerR, batcherR, storeR, engineR := newRung(n), newRung(n), newRung(n), newRung(n), newRung(n)

	// HTTP, with the client's and the middleware's spans of each request.
	mark := b.tr.mark()
	bytes0 := b.tr.bytesIn.Load() + b.tr.bytesOut.Load()
	ids := make([]int64, n)
	c := b.clients[0]
	for i := range b.pool {
		ids[i] = b.nextID.Add(1)
		start := time.Now()
		_, err := c.query(&b.pool[i], ids[i])
		httpR[i] = time.Since(start)
		b.check(err)
	}
	b.set("http.bytes_per_req", perQuery(float64(b.tr.bytesIn.Load()+b.tr.bytesOut.Load()-bytes0), n))
	client, server := spansByID(b.tr.take("http", mark)), spansByID(b.tr.take("handler", mark))
	var httpSelf []time.Duration
	for _, id := range ids {
		if cs, ok := client[id]; ok {
			if ss, ok := server[id]; ok {
				httpSelf = append(httpSelf, cs[0].dur()-ss[0].dur())
			}
		}
	}
	sortDurations(httpSelf)
	b.set("http.self_us.p50", us(quantile(httpSelf, 0.5)))

	// The handler in process.
	h := b.st.front.Handler()
	for i := range b.pool {
		r := &b.pool[i]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(r.body))
		start := time.Now()
		h.ServeHTTP(rec, req)
		handlerR[i] = time.Since(start)
		if rec.Code != http.StatusOK {
			b.check(fmt.Errorf("handler answered %d", rec.Code))
			continue
		}
		_, err := checkNDJSON(rec.Body.Bytes(), r.want)
		b.check(err)
	}

	// The batcher.
	bt := b.st.front.Batcher()
	buf := make([]uint32, 0, 1<<16)
	for i := range b.pool {
		r := &b.pool[i]
		start := time.Now()
		out, err := bt.DoExprLimit(ctx, buf[:0], r.expr, r.limit)
		batcherR[i] = time.Since(start)
		if err == nil {
			err = checkIDs(out, r.want)
			buf = out
		}
		b.check(err)
	}

	// The store; shard spans recorded below it carry the request's id.
	mark = b.tr.mark()
	var remoteBytes0 int64
	if b.st.remote != nil {
		remoteBytes0 = b.st.remote.bytes.Load()
	}
	for i := range b.pool {
		b.tr.current.Store(ids[i])
		var err error
		storeR[i], buf, err = b.execStore(b.st.store, &b.pool[i], buf)
		b.check(err)
	}
	b.tr.current.Store(0)
	b.set("store.exec_us.p50", us(quantile(storeR.sorted(), 0.5)))
	b.set("store.exec_us.p99", us(quantile(storeR.sorted(), 0.99)))
	if b.st.remote != nil {
		b.shardMetrics(b.tr.take("shard.rpc", mark))
		hs := durations(b.tr.take("shard.http", mark))
		b.set("shard.http_us.p50", us(quantile(hs, 0.5)))
		b.set("shard.http_bytes_per_query", perQuery(float64(b.st.remote.bytes.Load()-remoteBytes0), n))
	} else {
		b.set("shard.http_us.p50", 0)
		b.set("shard.http_bytes_per_query", 0)
	}

	// The engines: one Reader per engine (per shard when sharded), run
	// one after another; the slowest sets the request's engine time, as
	// the shards of a scatter run in parallel.
	engines, err := b.engines()
	if err != nil {
		return err
	}
	part := setcontain.NewRoundRobinPartitioner(len(engines))
	readers := make([]*setcontain.Reader, len(engines))
	for i, e := range engines {
		if readers[i], err = e.NewReader(0); err != nil {
			return err
		}
	}
	for i := range b.pool {
		q, ok := b.pool[i].leaf()
		if !ok {
			continue
		}
		var global []uint32
		var slowest time.Duration
		var qerr error
		for s, rd := range readers {
			start := time.Now()
			local, err := rd.EvalAppend(buf[:0], q)
			slowest = max(slowest, time.Since(start))
			if err != nil {
				qerr = err
				break
			}
			for _, id := range local {
				global = append(global, part.GlobalOf(s, id))
			}
		}
		engineR[i] = slowest
		if qerr == nil {
			sort.Slice(global, func(x, y int) bool { return global[x] < global[y] })
			qerr = checkIDs(global, b.pool[i].want)
		}
		b.check(qerr)
	}

	hSelf, bSelf := self(handlerR, batcherR), self(batcherR, storeR)
	b.set("handler.self_us.p50", us(quantile(hSelf, 0.5)))
	b.set("handler.self_us.p99", us(quantile(hSelf, 0.99)))
	b.set("batcher.self_us.p50", us(quantile(bSelf, 0.5)))
	b.set("batcher.self_us.p99", us(quantile(bSelf, 0.99)))
	b.set("store.self_us.p50", us(quantile(self(storeR, engineR), 0.5)))
	b.set("engine.us.p50", us(quantile(engineR.sorted(), 0.5)))
	b.rep.info["ladder_http_p50_us"] = us(quantile(httpR.sorted(), 0.5))
	b.rep.info["ladder_handler_p50_us"] = us(quantile(handlerR.sorted(), 0.5))
	b.rep.info["ladder_batcher_p50_us"] = us(quantile(batcherR.sorted(), 0.5))

	if err := b.scatter(storeR, buf); err != nil {
		return err
	}
	if b.writes != nil {
		return b.durableInserts()
	}
	return nil
}

// execStore answers r on store through the single-request entry points
// (ExecAppend for a plain query, the expression ones otherwise), checks
// the answer, and returns the call's latency.
func (b *bench) execStore(store *setcontain.Store, r *request, buf []uint32) (time.Duration, []uint32, error) {
	ctx := context.Background()
	start := time.Now()
	var out []uint32
	var err error
	if q, ok := r.leaf(); ok {
		out, err = store.ExecAppend(ctx, buf[:0], q)
	} else if r.limit > 0 {
		out, err = store.ExecExprLimitAppend(ctx, buf[:0], r.expr, r.limit)
	} else {
		out, err = store.ExecExprAppend(ctx, buf[:0], r.expr)
	}
	took := time.Since(start)
	if err != nil {
		return took, buf, err
	}
	return took, out, checkIDs(out, r.want)
}

// engines lists the engines answering the workload: each shard of a
// sharded or coordinated stack, or the single index.
func (b *bench) engines() ([]setcontain.Engine, error) {
	if len(b.st.shards) > 0 {
		var out []setcontain.Engine
		for _, sh := range b.st.shardIdx {
			out = append(out, sh.Engine())
		}
		return out, nil
	}
	if es := setcontain.ShardEngines(b.st.idx.Engine()); len(es) > 0 {
		return es, nil
	}
	return []setcontain.Engine{b.st.idx.Engine()}, nil
}

// scatter measures the scatter layer on the workloads that have one:
// scatter.self is the sharded store's latency minus a single-OIF
// store's on the same requests, and the shard-call metrics come from
// span-recording shard clients (coord-remote records them in the store
// rung already; expr-hot replays through ShardedOverClients over its
// own shard engines).
func (b *bench) scatter(storeR rung, buf []uint32) error {
	if len(b.st.shards) == 0 && len(setcontain.ShardEngines(b.st.idx.Engine())) == 0 {
		for _, name := range []string{"scatter.self_us.p50", "shard.calls_per_query",
			"shard.rpc_us.p50", "shard.rpc_us.p99", "scatter.straggler_ratio"} {
			b.set(name, 0)
		}
		return nil
	}
	single, err := setcontain.New(setcontain.WrapDataset(b.d))
	if err != nil {
		return err
	}
	store := setcontain.NewStore(single, 0)
	singleR := newRung(len(b.pool))
	for pass := 0; pass < 2; pass++ { // the first pass warms the caches
		for i := range b.pool {
			var err error
			singleR[i], buf, err = b.execStore(store, &b.pool[i], buf)
			b.check(err)
		}
	}
	b.set("scatter.self_us.p50", us(quantile(self(storeR, singleR), 0.5)))
	if b.st.remote != nil {
		return nil // shard metrics already taken from the store rung
	}
	ctx := context.Background()
	engines := setcontain.ShardEngines(b.st.idx.Engine())
	clients := make([]setcontain.ShardClient, len(engines))
	for i, e := range engines {
		clients[i] = b.tr.shardClient(setcontain.InprocShard(e))
	}
	over, err := setcontain.ShardedOverClients(ctx, clients)
	if err != nil {
		return err
	}
	store = setcontain.NewStore(over, 0)
	var mark int
	for pass := 0; pass < 2; pass++ {
		mark = b.tr.mark()
		for i := range b.pool {
			b.tr.current.Store(int64(i + 1))
			var err error
			_, buf, err = b.execStore(store, &b.pool[i], buf)
			b.check(err)
		}
	}
	b.tr.current.Store(0)
	b.shardMetrics(b.tr.take("shard.rpc", mark))
	return nil
}

// shardMetrics summarizes shard-call spans attributed to requests.
func (b *bench) shardMetrics(spans []span) {
	byID := spansByID(spans)
	var all []time.Duration
	var stragglers []float64
	for _, ss := range byID {
		ds := make([]time.Duration, len(ss))
		for i, s := range ss {
			ds[i] = s.dur()
		}
		sortDurations(ds)
		all = append(all, ds...)
		if len(ds) > 1 {
			med := ds[len(ds)/2]
			if len(ds)%2 == 0 {
				med = (ds[len(ds)/2-1] + ds[len(ds)/2]) / 2
			}
			stragglers = append(stragglers, ratio(float64(ds[len(ds)-1]), float64(med)))
		}
	}
	sortDurations(all)
	b.set("shard.calls_per_query", perQuery(float64(len(all)), len(b.pool)))
	b.set("shard.rpc_us.p50", us(quantile(all, 0.5)))
	b.set("shard.rpc_us.p99", us(quantile(all, 0.99)))
	b.set("scatter.straggler_ratio", median(stragglers))
}

// durableInserts times inserts sent straight to Durable.InsertSets —
// the durability layer without HTTP or the admin lock around it.
func (b *bench) durableInserts() error {
	w := b.writes
	var lat []time.Duration
	for i := 0; i < ladderInserts; i++ {
		set := w.nextSet()
		start := time.Now()
		ids, err := b.st.durable.InsertSets([][]setcontain.Item{set})
		took := time.Since(start)
		b.tr.record("durable.insert", 0, start, start.Add(took))
		if err != nil {
			b.check(err)
			continue
		}
		lat = append(lat, took)
		w.ack(ids[0], set)
		b.check(nil)
	}
	sortDurations(lat)
	b.set("durable.insert_us.p50", us(quantile(lat, 0.5)))
	b.set("durable.insert_us.p99", us(quantile(lat, 0.99)))
	return nil
}

func spansByID(spans []span) map[int64][]span {
	m := map[int64][]span{}
	for _, s := range spans {
		if s.id != 0 {
			m[s.id] = append(m[s.id], s)
		}
	}
	return m
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.dur())
	}
	sortDurations(out)
	return out
}
