// Transport equivalence is the payoff property of the shard transport
// abstraction: the same collection served through four different
// stacks — one engine, a sharded engine, in-process ShardClients, and
// remote HTTP shard daemons — must answer every query, expression, and
// limited expression with byte-identical id slices, through pending
// inserts and deletes, after the delta merge, and under cancellation.
// This file lives in the external test package so it can stand real
// daemons up with setcontain/serve without an import cycle.
package setcontain_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// transportVariant is one way of serving the shared collection.
type transportVariant struct {
	name  string
	store *setcontain.Store
}

// buildTransportVariants stands up the four stacks over identical data.
// Each variant gets its own engines — mutations must not alias across
// variants — and the HTTP one gets a live httptest daemon per shard.
func buildTransportVariants(t *testing.T, sets [][]setcontain.Item, domain, shards int) []transportVariant {
	t.Helper()
	build := func(kind setcontain.Kind) *setcontain.Index {
		c := setcontain.NewCollection(domain)
		for _, s := range sets {
			if _, err := c.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		idx, err := setcontain.New(c, setcontain.WithKind(kind), setcontain.WithShards(shards),
			setcontain.WithPageSize(512), setcontain.WithBlockPostings(8))
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}

	single := build(setcontain.OIF)
	sharded := build(setcontain.Sharded)

	inprocBase := build(setcontain.Sharded)
	inprocClients := make([]setcontain.ShardClient, 0, shards)
	for _, eng := range setcontain.ShardEngines(inprocBase.Engine()) {
		inprocClients = append(inprocClients, setcontain.InprocShard(eng))
	}
	inproc, err := setcontain.ShardedOverClients(context.Background(), inprocClients)
	if err != nil {
		t.Fatalf("inproc coordinator: %v", err)
	}

	httpBase := build(setcontain.Sharded)
	httpClients := make([]setcontain.ShardClient, 0, shards)
	for _, eng := range setcontain.ShardEngines(httpBase.Engine()) {
		sidx := setcontain.IndexOver(eng)
		sv := serve.NewServer(sidx, setcontain.NewStore(sidx, 8), serve.Config{})
		ts := httptest.NewServer(sv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(sv.Close)
		httpClients = append(httpClients, setcontain.NewRemoteShard(ts.URL, nil))
	}
	remote, err := setcontain.ShardedOverClients(context.Background(), httpClients)
	if err != nil {
		t.Fatalf("http coordinator: %v", err)
	}

	return []transportVariant{
		{"single", setcontain.NewStore(single, 8)},
		{"sharded", setcontain.NewStore(sharded, 8)},
		{"inproc", setcontain.NewStore(inproc, 8)},
		{"http", setcontain.NewStore(remote, 8)},
	}
}

// randomExprText draws a boolean expression over Zipf-skewed leaves in
// the ParseExpr grammar.
func randomExprText(rng *rand.Rand, z *dataset.Zipf) string {
	leaf := func() string {
		preds := []string{"subset", "equality", "superset"}
		items := z.SampleDistinct(rng, 1+rng.Intn(4))
		strs := make([]string, len(items))
		for i, it := range items {
			strs[i] = fmt.Sprint(it)
		}
		return fmt.Sprintf("%s{%s}", preds[rng.Intn(len(preds))], strings.Join(strs, " "))
	}
	switch rng.Intn(4) {
	case 0:
		return leaf()
	case 1:
		return leaf() + " and " + leaf()
	case 2:
		return leaf() + " or not " + leaf()
	default:
		return "(" + leaf() + " or " + leaf() + ") and not " + leaf()
	}
}

// TestTransportEquivalence is the property test: remote == in-process
// clients == sharded engine == single engine, byte-identical, with
// pending inserts and deletes, after the merge, and canceled cleanly.
func TestTransportEquivalence(t *testing.T) {
	const (
		domain  = 48
		shards  = 3
		records = 900
	)
	rng := rand.New(rand.NewSource(7))
	z := dataset.NewZipf(domain, 0.9)
	sets := make([][]setcontain.Item, records)
	for i := range sets {
		sets[i] = z.SampleDistinct(rng, 1+rng.Intn(6))
	}
	variants := buildTransportVariants(t, sets, domain, shards)

	queries := make([]setcontain.Query, 60)
	preds := []setcontain.Predicate{setcontain.PredicateSubset, setcontain.PredicateEquality, setcontain.PredicateSuperset}
	for i := range queries {
		queries[i] = setcontain.Query{
			Pred:  preds[rng.Intn(len(preds))],
			Items: z.SampleDistinct(rng, 1+rng.Intn(5)),
		}
	}
	type exprCase struct {
		expr  *setcontain.Expr
		limit int
	}
	exprs := make([]exprCase, 25)
	for i := range exprs {
		text := randomExprText(rng, z)
		e, err := setcontain.ParseExpr(text)
		if err != nil {
			t.Fatalf("generated unparseable expr %q: %v", text, err)
		}
		exprs[i] = exprCase{expr: e, limit: rng.Intn(12)} // 0 = unlimited
	}

	ctx := context.Background()
	compare := func(stage string) {
		t.Helper()
		for qi, q := range queries {
			want, err := variants[0].store.Exec(ctx, q)
			if err != nil {
				t.Fatalf("%s: %s query %d (%s): %v", stage, variants[0].name, qi, q, err)
			}
			for _, v := range variants[1:] {
				got, err := v.store.Exec(ctx, q)
				if err != nil {
					t.Fatalf("%s: %s query %d (%s): %v", stage, v.name, qi, q, err)
				}
				if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("%s: %s query %d (%s): %v, single says %v", stage, v.name, qi, q, got, want)
				}
			}
		}
		for ei, ec := range exprs {
			want, err := variants[0].store.ExecExprLimitAppend(ctx, nil, ec.expr, ec.limit)
			if err != nil {
				t.Fatalf("%s: %s expr %d (%s): %v", stage, variants[0].name, ei, ec.expr, err)
			}
			for _, v := range variants[1:] {
				got, err := v.store.ExecExprLimitAppend(ctx, nil, ec.expr, ec.limit)
				if err != nil {
					t.Fatalf("%s: %s expr %d (%s): %v", stage, v.name, ei, ec.expr, err)
				}
				if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("%s: %s expr %d (%s) limit %d: %v, single says %v",
						stage, v.name, ei, ec.expr, ec.limit, got, want)
				}
			}
		}
	}
	compare("built")

	// Mutations travel through every transport's own store; ids must
	// match across variants because they share one global id space.
	extra := make([][]setcontain.Item, 20)
	for i := range extra {
		extra[i] = z.SampleDistinct(rng, 1+rng.Intn(6))
	}
	var wantIDs []uint32
	for vi, v := range variants {
		ids, err := v.store.InsertSets(extra)
		if err != nil {
			t.Fatalf("%s: inserts: %v", v.name, err)
		}
		if vi == 0 {
			wantIDs = ids
		} else if !slices.Equal(ids, wantIDs) {
			t.Fatalf("%s: insert ids %v, single got %v", v.name, ids, wantIDs)
		}
	}
	doomed := []uint32{5, 17, uint32(records + 3)}
	for _, v := range variants {
		if err := v.store.DeleteIDs(doomed); err != nil {
			t.Fatalf("%s: deletes: %v", v.name, err)
		}
	}
	compare("pending")

	for _, v := range variants {
		if err := v.store.MergeDelta(); err != nil {
			t.Fatalf("%s: merge: %v", v.name, err)
		}
	}
	compare("merged")

	// A canceled context must stop every transport with the caller's own
	// context error, never a transport artifact.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for _, v := range variants {
		if _, err := v.store.Exec(canceled, queries[0]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled Exec: %v, want context.Canceled", v.name, err)
		}
		if _, err := v.store.ExecExprAppend(canceled, nil, exprs[0].expr); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled ExecExprAppend: %v, want context.Canceled", v.name, err)
		}
	}
}

// TestTransportConcurrentCancel hammers the HTTP transport from several
// goroutines and cancels mid-stream: every query must either match the
// single-engine answer exactly or fail with context.Canceled — no
// corrupt merges, no hung watchdogs. Run under -race this is the
// concurrency acceptance test for the remote session layer.
func TestTransportConcurrentCancel(t *testing.T) {
	const (
		domain  = 40
		shards  = 2
		records = 600
	)
	rng := rand.New(rand.NewSource(13))
	z := dataset.NewZipf(domain, 0.9)
	sets := make([][]setcontain.Item, records)
	for i := range sets {
		sets[i] = z.SampleDistinct(rng, 1+rng.Intn(6))
	}
	variants := buildTransportVariants(t, sets, domain, shards)
	single, remote := variants[0].store, variants[3].store

	queries := make([]setcontain.Query, 120)
	preds := []setcontain.Predicate{setcontain.PredicateSubset, setcontain.PredicateEquality, setcontain.PredicateSuperset}
	for i := range queries {
		queries[i] = setcontain.Query{
			Pred:  preds[rng.Intn(len(preds))],
			Items: z.SampleDistinct(rng, 1+rng.Intn(4)),
		}
	}
	want := make([][]uint32, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = single.Exec(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(queries); i += 4 {
				if i == 40 {
					cancel()
				}
				got, err := remote.Exec(ctx, queries[i])
				switch {
				case errors.Is(err, context.Canceled):
				case err != nil:
					errs <- fmt.Errorf("query %d (%s): %v", i, queries[i], err)
					return
				case !slices.Equal(got, want[i]) && !(len(got) == 0 && len(want[i]) == 0):
					errs <- fmt.Errorf("query %d (%s): got %v want %v", i, queries[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := remote.Exec(ctx, queries[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("post-cancel Exec: %v, want context.Canceled", err)
	}
}

// TestTransportPartialFailure kills one shard daemon under a live
// coordinator: queries must fail with a ShardError naming the dead
// shard (or the transport error wrapped in it), not hang and not
// silently return partial answers.
func TestTransportPartialFailure(t *testing.T) {
	const (
		domain  = 30
		shards  = 3
		records = 300
	)
	rng := rand.New(rand.NewSource(23))
	z := dataset.NewZipf(domain, 0.8)
	c := setcontain.NewCollection(domain)
	for i := 0; i < records; i++ {
		if _, err := c.Add(z.SampleDistinct(rng, 1+rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := setcontain.New(c, setcontain.WithKind(setcontain.Sharded), setcontain.WithShards(shards),
		setcontain.WithPageSize(512), setcontain.WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, 0, shards)
	clients := make([]setcontain.ShardClient, 0, shards)
	for _, eng := range setcontain.ShardEngines(idx.Engine()) {
		sidx := setcontain.IndexOver(eng)
		sv := serve.NewServer(sidx, setcontain.NewStore(sidx, 8), serve.Config{})
		ts := httptest.NewServer(sv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(sv.Close)
		servers = append(servers, ts)
		clients = append(clients, setcontain.NewRemoteShard(ts.URL, nil))
	}
	remote, err := setcontain.ShardedOverClients(context.Background(), clients)
	if err != nil {
		t.Fatal(err)
	}
	store := setcontain.NewStore(remote, 8)

	q := setcontain.SubsetQuery([]setcontain.Item{1})
	if _, err := store.Exec(context.Background(), q); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}

	servers[1].Close() // shard 1 dies
	_, err = store.Exec(context.Background(), q)
	var se *setcontain.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("dead shard: got %v, want a ShardError", err)
	}
	if se.Shard != 1 {
		t.Fatalf("dead shard misattributed: %v names shard %d, shard 1 died", err, se.Shard)
	}
}
