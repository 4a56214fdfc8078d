package main

import (
	"context"
	"fmt"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// maintenanceCycles is how many merges, and how many checkpoints, the
// maintenance phase runs; a run completing fewer of either is invalid.
const maintenanceCycles = 3

// recoveryTail is the log tail recover_s replays: after the timed
// phases a checkpoint is taken and recoveryTail inserts follow it, in
// untraced and traced runs alike.
const recoveryTail = 200

// Maintenance operations the write stream runs in place of an insert.
const (
	opMerge      = "merge"
	opCheckpoint = "checkpoint"
)

// acked is one acknowledged insert.
type acked struct {
	id  uint32
	set []setcontain.Item
}

// merge is one /admin/merge call, timed by the client.
type merge struct {
	start, end time.Duration // offsets from epoch
	pending    int
}

// writer is ingest-durable's write stream: single-record inserts at the
// workload's fixed rate on their own connection. When the maintenance
// phase asks for a merge or a checkpoint, the stream's next operation
// is POST /admin/merge or /admin/checkpoint instead of an insert. Its
// records never answer a read pool query, so the read digests stay
// valid while it runs.
type writer struct {
	b      *bench
	sets   [][]setcontain.Item
	next   int
	client *client

	stop chan struct{}
	done chan []sample
	// maint carries the maintenance operations asked for; the buffer
	// holds one phase's worth, so asking never blocks.
	maint chan string

	acked      []acked
	items      int64 // items in acknowledged inserts
	sinceMerge int
	merges     []merge
	maintOps   map[int]bool // write-loop positions that ran maintenance
	// ackFrom..ackTo is the window whose acknowledgements report
	// insert_ack_*; a traced run limits it to its untraced phase.
	ackFrom, ackTo time.Duration
}

func newWriter(b *bench, seed int64) (*writer, error) {
	expect := b.w.writeRate * b.cfg.seconds
	w := &writer{
		b:        b,
		maint:    make(chan string, 2*maintenanceCycles),
		maintOps: map[int]bool{},
	}
	need := int(expect*1.5) + ladderInserts + recoveryTail + 100
	cands, err := generate(need*4, seed)
	if err != nil {
		return nil, err
	}
	queries := make([]setcontain.Query, 0, len(b.pool))
	for i := range b.pool {
		if q, ok := b.pool[i].leaf(); ok {
			queries = append(queries, q)
		}
	}
	for _, r := range cands.Records() {
		if !matchesAny(r, queries) {
			w.sets = append(w.sets, r.Set)
		}
	}
	if len(w.sets) < need {
		return nil, fmt.Errorf("only %d of %d insert candidates avoid the read pool", len(w.sets), need)
	}
	return w, nil
}

// matchesAny reports whether record r answers any of the queries.
func matchesAny(r dataset.Record, queries []setcontain.Query) bool {
	for _, q := range queries {
		var hit bool
		switch q.Pred {
		case setcontain.PredicateSubset:
			hit = r.ContainsAll(q.Items)
		case setcontain.PredicateEquality:
			hit = r.EqualSet(q.Items)
		default:
			hit = r.SubsetOf(q.Items)
		}
		if hit {
			return true
		}
	}
	return false
}

func (w *writer) nextSet() []setcontain.Item {
	s := w.sets[w.next%len(w.sets)]
	w.next++
	return s
}

// do is the write loop's operation (the loop has one connection, so
// calls never overlap).
func (w *writer) do(c *client, i int) (int, error) {
	id := w.b.nextID.Add(1)
	select {
	case op := <-w.maint:
		w.maintOps[i] = true
		return 0, w.maintain(c, op, id)
	default:
	}
	set := w.nextSet()
	var resp serve.InsertResponse
	if err := c.postJSON("/admin/insert", serve.InsertRequest{Sets: [][]setcontain.Item{set}}, &resp, id); err != nil {
		return 0, fmt.Errorf("insert: %w", err)
	}
	if len(resp.IDs) != 1 {
		return 0, fmt.Errorf("insert acknowledged %d ids for one set", len(resp.IDs))
	}
	w.ack(resp.IDs[0], set)
	return 0, nil
}

// maintain runs one maintenance operation on the write connection.
func (w *writer) maintain(c *client, op string, id int64) error {
	if op == opCheckpoint {
		var resp serve.CheckpointResponse
		if err := c.postJSON("/admin/checkpoint", struct{}{}, &resp, id); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		return nil
	}
	m := merge{start: time.Since(epoch), pending: w.sinceMerge}
	var resp serve.AdminStateResponse
	err := c.postJSON("/admin/merge", struct{}{}, &resp, id)
	m.end = time.Since(epoch)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if resp.Pending != 0 {
		return fmt.Errorf("merge left %d inserts pending", resp.Pending)
	}
	w.merges = append(w.merges, m)
	w.sinceMerge = 0
	return nil
}

// maintenancePhase (ingest-durable) reads at the low rate while the
// write stream runs maintenanceCycles merges, each followed by a
// checkpoint, evenly spread over the phase. The background work runs
// only here. A merge holds the store lock for its whole duration and
// stalls any read that needs a fresh pooled reader meanwhile, which
// happens at random, and a checkpoint serializes the whole index; in
// the fixed-rate phases either would make their p99 swing between two
// values from run to run. merge.read_p99_ms reports the reads a merge
// overlaps.
func (b *bench) maintenancePhase(d time.Duration) {
	w := b.writes
	if w == nil {
		return
	}
	timers := make([]*time.Timer, maintenanceCycles)
	for k := range timers {
		timers[k] = time.AfterFunc(d*time.Duration(k)/maintenanceCycles, func() {
			w.maint <- opMerge
			w.maint <- opCheckpoint
		})
	}
	b.phase(b.w.lowRate, d)
	for _, t := range timers {
		t.Stop()
	}
}

func (w *writer) ack(id uint32, set []setcontain.Item) {
	w.acked = append(w.acked, acked{id, set})
	w.items += int64(len(set))
	w.sinceMerge++
}

// startWrites starts the write stream, if the workload has one.
func (b *bench) startWrites() {
	w := b.writes
	if w == nil {
		return
	}
	w.client = newClients(1, b.st.url, b.tr)[0]
	w.stop = make(chan struct{})
	w.done = make(chan []sample, 1)
	w.ackFrom, w.ackTo = time.Since(epoch), time.Duration(1<<62)
	go func() {
		w.done <- loop{rate: b.w.writeRate, stop: w.stop, do: w.do}.run([]*client{w.client})
	}()
}

// stopWrites ends the write stream and records its metrics.
func (b *bench) stopWrites() {
	w := b.writes
	if w == nil {
		return
	}
	close(w.stop)
	samples := <-w.done
	closeClients([]*client{w.client})
	b.all.add(tallyOf(samples))
	var ack, mergeT []time.Duration
	for i := range samples {
		s := &samples[i]
		if s.ran && s.err == nil && !w.maintOps[s.i] && s.due >= w.ackFrom && s.due < w.ackTo {
			ack = append(ack, s.latency())
		}
	}
	sortDurations(ack)
	b.set("insert_ack_p50_ms", ms(quantile(ack, 0.5)))
	b.set("insert_ack_p99_ms", ms(quantile(ack, 0.99)))
	b.rep.info["insert_acks"] = len(ack)
	// Reads whose lifetime overlaps a merge.
	var during []time.Duration
	var pending float64
	for _, m := range w.merges {
		mergeT = append(mergeT, m.end-m.start)
		pending += float64(m.pending)
		for i := range b.reads {
			s := &b.reads[i]
			if s.ran && s.err == nil && s.due < m.end && s.end > m.start {
				during = append(during, s.latency())
			}
		}
	}
	sortDurations(during)
	b.set("merge.ms.mean", ms(meanDuration(mergeT)))
	b.set("merge.read_p99_ms", ms(quantile(during, 0.99)))
	b.set("delta.pending_at_merge", perQuery(pending, len(w.merges)))
	b.rep.info["merges"] = len(w.merges)
	if len(w.merges) < maintenanceCycles {
		b.rep.fail("only %d merges completed (want %d)", len(w.merges), maintenanceCycles)
	}
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// recoverAndVerify closes the durable stack after writing it a fixed
// log tail (a checkpoint, then recoveryTail inserts straight to the
// durability layer), recovers it from its write-ahead log (timed as
// recover_s), and checks the recovered index:
// every acknowledged insert is present, and sample answers match the
// naive oracle over the initial records plus the acknowledged inserts.
func (b *bench) recoverAndVerify() error {
	w := b.writes
	st := b.durableStats()
	checkpoints := st.Checkpoints - b.walBase.Checkpoints
	b.set("checkpoint.count", float64(checkpoints))
	b.set("checkpoint.ms.mean", ratio(float64(st.CheckpointNanos-b.walBase.CheckpointNanos)/1e6, float64(checkpoints)))
	logSyncs := st.Log.Syncs - b.walBase.Log.Syncs
	inserts := len(w.acked)
	b.set("wal.fsync_us.mean", ratio(float64(st.Log.TotalSyncNanos-b.walBase.Log.TotalSyncNanos)/1e3, float64(logSyncs)))
	b.set("wal.syncs_per_insert", perQuery(float64(logSyncs), inserts))
	b.set("wal.bytes_per_user_byte", ratio(float64(st.Log.AppendedBytes-b.walBase.Log.AppendedBytes), float64(4*w.items)))
	if checkpoints < maintenanceCycles {
		b.rep.fail("only %d checkpoints completed (want %d)", checkpoints, maintenanceCycles)
	}

	if err := b.st.durable.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint before recovery: %w", err)
	}
	for i := 0; i < recoveryTail; i++ {
		set := w.nextSet()
		ids, err := b.st.durable.InsertSets([][]setcontain.Item{set})
		if err != nil {
			return fmt.Errorf("insert before recovery: %w", err)
		}
		w.ack(ids[0], set)
	}

	dir := b.walDirs[len(b.walDirs)-1]
	b.st.close()
	b.st = nil
	start := time.Now()
	rec, err := openDurable(dir, nil)
	if err != nil {
		return fmt.Errorf("recovering %s: %w", dir, err)
	}
	b.set("recover_s", time.Since(start).Seconds())
	b.st = rec
	replayed := rec.durable.Stats().Replay.Records
	b.rep.info["recover_replayed_records"] = replayed
	if replayed != recoveryTail {
		b.rep.problems = append(b.rep.problems, fmt.Sprintf(
			"recovery replayed %d log records, not the %d-insert tail", replayed, recoveryTail))
	}

	ctx := context.Background()
	for _, a := range w.acked {
		ids, err := rec.store.Exec(ctx, setcontain.EqualityQuery(a.set))
		if err != nil {
			return err
		}
		if !containsID(ids, a.id) {
			b.rep.fail("acknowledged insert %d is missing after recovery", a.id)
			break
		}
	}
	// The oracle collection: initial records, then the inserts in id
	// order (ids are assigned consecutively by the single writer).
	all := dataset.New(b.d.DomainSize())
	for _, r := range b.d.Records() {
		all.Add(r.Set)
	}
	for _, a := range w.acked {
		id, _ := all.Add(a.set)
		if id != a.id {
			b.rep.fail("acknowledged ids are not consecutive: insert %d acknowledged as %d", id, a.id)
			return nil
		}
	}
	var sample []setcontain.Query
	for i := 0; i < 10 && i < len(b.pool); i++ {
		if q, ok := b.pool[i].leaf(); ok {
			sample = append(sample, q)
		}
	}
	for i := 0; i < 10 && i < len(w.acked); i++ {
		set := w.acked[i*len(w.acked)/10].set
		sample = append(sample, setcontain.SubsetQuery(set[:min(2, len(set))]))
	}
	for _, q := range sample {
		got, err := rec.store.Exec(ctx, q)
		if err != nil {
			return err
		}
		want, _ := q.Eval(naiveOf(all))
		if digestOf(got) != digestOf(want) {
			b.rep.fail("after recovery %v answers %d ids, the oracle %d", q, len(got), len(want))
		}
	}
	return nil
}

func containsID(ids []uint32, id uint32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// durableStats reads the write-ahead log's counters (zero without one).
func (b *bench) durableStats() setcontain.DurableStats {
	if b.st == nil || b.st.durable == nil {
		return setcontain.DurableStats{}
	}
	return b.st.durable.Stats()
}

// zeroDurability reports the durability, merge and write metrics of a
// workload without writes: the layers are bypassed.
func (b *bench) zeroDurability() {
	for _, name := range []string{
		"durable.insert_us.p50", "durable.insert_us.p99", "wal.fsync_us.mean",
		"wal.syncs_per_insert", "wal.bytes_per_user_byte", "checkpoint.count",
		"checkpoint.ms.mean", "merge.ms.mean", "merge.read_p99_ms",
		"delta.pending_at_merge", "insert_ack_p50_ms", "insert_ack_p99_ms", "recover_s",
	} {
		b.set(name, 0)
	}
}

// filesystemOf names the filesystem holding dir.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
