package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/setcontain"
)

// setupRuns is how many times a run sets its stack up; setup_s and
// mem_mb report the median.
const setupRuns = 3

// The read_qps_at_slo search bisects until its bracket is at most
// 1/sloStep of its lower end, and stops climbing at sloClimbCap times the
// high rate.
const (
	sloStep     = 64
	sloClimbCap = 64
)

// workload is one traffic mix over one serving stack.
type workload struct {
	name    string
	records int
	// lowRate and highRate are the fixed offered read rates (req/s) of
	// the low and high phases: about 20% and 70% of the read capacity
	// measured on the seed commit (-calibrate). They never change.
	lowRate, highRate float64
	// readConns is the number of client connections carrying reads.
	readConns int
	// writeRate is the offered insert rate (ingest-durable only).
	writeRate float64
	pool      func(d *dataset.Dataset, seed int64) ([]request, error)
	setup     func(b *bench, k int) (*stack, error)
}

var workloads = []*workload{
	{
		name: "paper-read", records: 1_000_000,
		lowRate: 220, highRate: 770, readConns: 2,
		pool: paperPool(16),
		setup: func(b *bench, _ int) (*stack, error) {
			return newSingle(b.d, b.tr)
		},
	},
	{
		name: "expr-hot", records: 100_000,
		lowRate: 130, highRate: 465, readConns: 2,
		pool: func(d *dataset.Dataset, seed int64) ([]request, error) {
			return exprMix(d, seed, 250)
		},
		setup: func(b *bench, _ int) (*stack, error) {
			return newSharded(b.d, b.tr)
		},
	},
	{
		name: "ingest-durable", records: 100_000,
		lowRate: 115, highRate: 400, readConns: 1, writeRate: 40,
		pool: paperPool(24),
		setup: func(b *bench, k int) (*stack, error) {
			dir, err := walDir(b.cfg, b.w.name, k)
			if err != nil {
				return nil, err
			}
			b.walDirs = append(b.walDirs, dir)
			return newDurable(b.d, dir, b.tr)
		},
	},
	{
		name: "coord-remote", records: 100_000,
		lowRate: 120, highRate: 415, readConns: 2,
		pool: paperPool(24),
		setup: func(b *bench, _ int) (*stack, error) {
			return newCoordRemote(b.slices, b.tr)
		},
	},
}

func paperPool(perClass int) func(d *dataset.Dataset, seed int64) ([]request, error) {
	return func(d *dataset.Dataset, seed int64) ([]request, error) {
		qs, err := paperLeaves(d, seed, perClass)
		if err != nil {
			return nil, err
		}
		exprs, limits := leafExprs(qs)
		return buildPool(d, exprs, limits)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// bench is one run's state.
type bench struct {
	cfg  config
	w    *workload
	d    *dataset.Dataset
	pool []request
	tr   *tracer // nil in untraced runs

	slices  []*setcontain.Collection // coord-remote's shard inputs
	walDirs []string                 // ingest-durable's logs, removed at exit
	writes  *writer                  // ingest-durable's insert stream

	st      *stack
	walBase setcontain.DurableStats // log counters right after setup
	clients []*client
	reads   []sample     // every read of the timed phases
	nextID  atomic.Int64 // trace ids
	nextReq atomic.Int64 // position in the pool
	rep     *report
	all     tally // every read and write the run made
}

func (b *bench) set(name string, v float64) { b.rep.metrics[name] = v }

// runWorkload performs one run: inputs from the seed, setup, the timed
// phases, and (ingest-durable) recovery with its checks.
func runWorkload(w *workload, cfg config) (*report, error) {
	b := &bench{cfg: cfg, w: w}
	defer b.cleanup()
	if err := b.start(); err != nil {
		return nil, err
	}
	var err error
	if cfg.trace {
		err = b.tracedPhases()
	} else {
		err = b.untracedPhases()
	}
	if err != nil {
		return nil, err
	}
	if b.writes != nil {
		if err := b.recoverAndVerify(); err != nil {
			return nil, err
		}
	} else {
		b.zeroDurability()
	}
	b.finish()
	return b.rep, nil
}

// start prepares a run: the inputs from the seed, the stack set up
// setupRuns times, the read connections, and a warm-up pass.
func (b *bench) start() error {
	w, cfg := b.w, b.cfg
	records := max(int(float64(w.records)*cfg.scale), 200)
	b.rep = &report{correct: true, metrics: map[string]float64{}, info: runInfo(w, cfg, records)}
	var err error
	if b.d, err = generate(records, cfg.seed); err != nil {
		return err
	}
	if b.pool, err = w.pool(b.d, cfg.seed+1); err != nil {
		return err
	}
	if cfg.corruptDigest >= 0 {
		b.pool[cfg.corruptDigest%len(b.pool)].want.h ^= 1
	}
	if w.name == "coord-remote" {
		if b.slices, err = shardSlices(b.d, 2); err != nil {
			return err
		}
	}
	if w.writeRate > 0 {
		if b.writes, err = newWriter(b, cfg.seed+2); err != nil {
			return err
		}
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	if err := b.setupStack(); err != nil {
		return err
	}
	b.clients = newClients(w.readConns, b.st.url, b.tr)
	b.warmup()
	return nil
}

// setupStack sets the stack up setupRuns times, keeping the last one,
// and records setup_s, mem_mb and their build/serve split as medians.
func (b *bench) setupStack() error {
	var total, build, serveT, mem []float64
	for k := 0; k < setupRuns; k++ {
		before := liveHeap()
		start := time.Now()
		st, err := b.w.setup(b, k)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start)
		mem = append(mem, float64(liveHeap()-before)/(1<<20))
		total = append(total, took.Seconds())
		build = append(build, st.buildTime.Seconds())
		serveT = append(serveT, (took - st.buildTime).Seconds())
		if k < setupRuns-1 {
			st.close()
			continue
		}
		b.st = st
		b.walBase = b.durableStats()
	}
	b.set("setup_s", median(total))
	b.set("mem_mb", median(mem))
	b.set("setup.build_s", median(build))
	b.set("setup.serve_s", median(serveT))
	recordCaches(b)
	return nil
}

// liveHeap is the Go heap in use after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// recordCaches notes the cache budgets the workload's |D| is compared
// against.
func recordCaches(b *bench) {
	b.rep.info["reader_cache_pages"] = 8
	b.rep.info["page_bytes"] = 4096
	b.rep.info["decoded_cache_postings"] = setcontain.DefaultDecodedCachePostings
	if b.writes != nil {
		b.rep.info["fsync"] = "always"
		b.rep.info["wal_fs"] = filesystemOf(b.walDirs[len(b.walDirs)-1])
	}
}

// warmup sends every pool request once, closed loop, so caches fill
// and lazy set-up finishes before timing.
func (b *bench) warmup() {
	n := len(b.pool)
	samples := loop{rate: 1e9, n: n, do: b.read}.run(b.clients)
	b.all.add(tallyOf(samples))
}

// read is the read operation of every load phase: the next pool
// request, checked against its digest.
func (b *bench) read(c *client, _ int) (int, error) {
	i := int(b.nextReq.Add(1)-1) % len(b.pool)
	return c.query(&b.pool[i], b.nextID.Add(1))
}

// phase runs the read load at rate for d and returns its tally.
func (b *bench) phase(rate float64, d time.Duration) tally {
	n := max(int(rate*d.Seconds()), 1)
	samples := loop{rate: rate, n: n, do: b.read}.run(b.clients)
	b.reads = append(b.reads, samples...)
	t := tallyOf(samples)
	b.all.add(t)
	return t
}

func (b *bench) seconds(share float64) time.Duration {
	return time.Duration(share * b.cfg.seconds * float64(time.Second))
}

// untracedPhases measures the end-to-end metrics: the low and high
// rates, then the SLO search. Writes (ingest-durable) run throughout.
func (b *bench) untracedPhases() error {
	b.startWrites()
	lowShare, searchShare := 0.45, 0.35
	if b.writes != nil {
		lowShare, searchShare = 0.4, 0.25 // 0.15 goes to maintenance
	}
	low := b.phase(b.w.lowRate, b.seconds(lowShare))
	high := b.phase(b.w.highRate, b.seconds(0.2))
	b.set("read_p50_ms.low", ms(quantile(low.lat, 0.5)))
	b.set("read_p99_ms.low", ms(quantile(low.lat, 0.99)))
	b.set("read_p50_ms.high", ms(quantile(high.lat, 0.5)))
	b.set("read_p99_ms.high", ms(quantile(high.lat, 0.99)))
	b.rep.info["samples_low"] = len(low.lat)
	b.rep.info["samples_high"] = len(high.lat)
	b.rep.info["low_quantiles_ms"] = quantilesMS(low.lat)
	b.rep.info["high_quantiles_ms"] = quantilesMS(high.lat)
	b.set("read_qps_at_slo", b.searchSLO(b.seconds(searchShare)))
	b.maintenancePhase(b.seconds(0.15))
	b.stopWrites()
	b.set("engine.ids_per_query", perQuery(float64(low.ids+high.ids), len(low.lat)+len(high.lat)))
	return nil
}

// searchSLO finds the highest offered read rate whose p99 meets sloP99
// with every request answered (see searchRate). A failing probe is
// repeated (the anchor twice, the rest once), so a transient stall on
// the shared machine does not end the climb. Each probe runs an eighth
// of budget (the anchor, one climb step and six bisections), stretched
// towards 1000 requests but never past 2.5 s, and stops early once it
// has certainly failed.
func (b *bench) searchSLO(budget time.Duration) float64 {
	probe := func(rate float64, tries int) bool {
		for try := 0; try < tries; try++ {
			d := max(budget/8, min(time.Duration(1000/rate*float64(time.Second)), 2500*time.Millisecond))
			n := max(int(rate*d.Seconds()), 1)
			samples := loop{rate: rate, n: n, abortSlow: n/100 + 1, do: b.read}.run(b.clients)
			b.reads = append(b.reads, samples...)
			b.all.add(tallyOf(samples))
			if meetsSLO(samples, n) {
				return true
			}
		}
		return false
	}
	rate, capped := searchRate(b.w.highRate, probe)
	if capped {
		b.rep.problems = append(b.rep.problems, fmt.Sprintf(
			"read_qps_at_slo search still passed at its cap of %.0f req/s: the figure is a lower bound", rate))
	}
	return rate
}

// searchRate is the read_qps_at_slo search over probe(rate, tries),
// anchored at the high rate. If the anchor passes, the rate doubles
// until a probe fails (capped reports a climb that reached
// sloClimbCap·high still passing); if it fails, the knee lies below it.
// The bracket is then bisected until it is at most 1/sloStep of its
// lower end or of half its upper end, whichever is larger.
func searchRate(high float64, probe func(rate float64, tries int) bool) (rate float64, capped bool) {
	lo, hi := high, 0.0
	if !probe(lo, 3) {
		lo, hi = 0, high
	}
	for hi == 0 {
		if lo >= sloClimbCap*high {
			return lo, true
		}
		if probe(2*lo, 2) {
			lo *= 2
		} else {
			hi = 2 * lo
		}
	}
	for hi-lo > max(lo, hi/2)/sloStep {
		mid := (lo + hi) / 2
		if probe(mid, 2) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, false
}

// finish folds the run's totals into the report.
func (b *bench) finish() {
	b.rep.attempted = b.all.attempted
	b.rep.failed = b.all.failed
	if b.all.wrong > 0 {
		b.rep.fail("%d answers did not match the oracle", b.all.wrong)
	}
	if b.all.firstErr != nil {
		b.rep.problems = append(b.rep.problems, fmt.Sprintf("first failure: %v", b.all.firstErr))
	}
	b.set("error_rate", float64(b.all.failed)/float64(max(b.all.attempted, 1)))
	late := quantile(b.all.late, 0.99)
	b.set("loadgen.late_p99_ms", ms(late))
	if late > lateBound {
		b.rep.problems = append(b.rep.problems, fmt.Sprintf(
			"load generator p99 lateness %.2f ms exceeds %v: discard this run", ms(late), lateBound))
	}
}

func (b *bench) cleanup() {
	closeClients(b.clients)
	if b.st != nil {
		b.st.close()
	}
	for _, dir := range b.walDirs {
		os.RemoveAll(dir)
	}
	if b.tr != nil {
		dir := filepath.Join(b.cfg.workDir, "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", b.w.name, b.cfg.seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			if err := b.tr.write(path); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			}
		}
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantilesMS summarizes a sorted latency sample for the info line:
// p50, p90, p99, p99.9 and the maximum, in milliseconds.
func quantilesMS(lat []time.Duration) []float64 {
	var out []float64
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		out = append(out, math.Round(ms(quantile(lat, q))*1000)/1000)
	}
	return out
}

// perQuery divides a total by a count, 0 for no count.
func perQuery(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// ratio divides a by b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// calibrate measures closed-loop read capacity on the workload's stack
// with its read connections (and its write stream, if any), and prints
// the fixed rates it implies.
func calibrate(w *workload, cfg config) error {
	b := &bench{cfg: cfg, w: w}
	defer b.cleanup()
	if err := b.start(); err != nil {
		return err
	}
	b.startWrites()
	stop := make(chan struct{})
	d := time.Duration(cfg.seconds * float64(time.Second))
	time.AfterFunc(d, func() { close(stop) })
	start := time.Now()
	samples := loop{rate: 1e9, stop: stop, do: b.read}.run(b.clients)
	elapsed := time.Since(start)
	b.stopWrites()
	t := tallyOf(samples)
	capacity := float64(len(t.lat)) / elapsed.Seconds()
	fmt.Printf("%s: closed-loop capacity %.0f req/s over %d connections (%d failed); low %.0f, high %.0f\n",
		w.name, capacity, w.readConns, t.failed, 0.2*capacity, 0.7*capacity)
	return nil
}
