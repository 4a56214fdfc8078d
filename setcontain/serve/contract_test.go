package serve_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/setcontain"
	"repro/setcontain/serve"
)

// readEntry is one read entry point under contract: call answers e up
// to limit ids (0 = all). leafOnly entry points take a plain Query, so
// they only see one-leaf expressions; noLimit ones only see limit 0.
type readEntry struct {
	name              string
	leafOnly, noLimit bool
	call              func(ctx context.Context, s *setcontain.Store, b *serve.Batcher, e *setcontain.Expr, limit int) ([]uint32, error)
}

// sameAnswers returns the shared answer of a multi-query call, or an
// error when the copies disagree.
func sameAnswers(outs [][]uint32) ([]uint32, error) {
	for i, out := range outs[1:] {
		if !slices.Equal(out, outs[0]) {
			return nil, fmt.Errorf("copy %d answered %d ids, copy 0 %d", i+1, len(out), len(outs[0]))
		}
	}
	return outs[0], nil
}

var readEntries = []readEntry{
	{"Store.Exec", true, true, func(ctx context.Context, s *setcontain.Store, _ *serve.Batcher, e *setcontain.Expr, _ int) ([]uint32, error) {
		return s.Exec(ctx, e.Leaf)
	}},
	{"Store.ExecAppend", true, true, func(ctx context.Context, s *setcontain.Store, _ *serve.Batcher, e *setcontain.Expr, _ int) ([]uint32, error) {
		return s.ExecAppend(ctx, make([]uint32, 0, 8), e.Leaf)
	}},
	{"Store.ExecExprAppend", false, true, func(ctx context.Context, s *setcontain.Store, _ *serve.Batcher, e *setcontain.Expr, _ int) ([]uint32, error) {
		return s.ExecExprAppend(ctx, nil, e)
	}},
	{"Store.ExecExprLimitAppend", false, false, func(ctx context.Context, s *setcontain.Store, _ *serve.Batcher, e *setcontain.Expr, limit int) ([]uint32, error) {
		return s.ExecExprLimitAppend(ctx, nil, e, limit)
	}},
	{"Store.ExecSeq", false, false, func(ctx context.Context, s *setcontain.Store, _ *serve.Batcher, e *setcontain.Expr, limit int) ([]uint32, error) {
		seq, err := s.ExecSeq(ctx, e, limit)
		if err != nil {
			return nil, err
		}
		return slices.Collect(seq), nil
	}},
	{"Store.ExecBatch", true, true, func(ctx context.Context, s *setcontain.Store, _ *serve.Batcher, e *setcontain.Expr, _ int) ([]uint32, error) {
		// Several copies, so the parallel worker path runs when
		// GOMAXPROCS allows it.
		outs, err := s.ExecBatch(ctx, []setcontain.Query{e.Leaf, e.Leaf, e.Leaf, e.Leaf})
		if err != nil {
			return nil, err
		}
		if len(outs) != 4 {
			return nil, fmt.Errorf("%d answers for 4 queries", len(outs))
		}
		return sameAnswers(outs)
	}},
	{"Store.ExecBatchAppend", false, false, func(ctx context.Context, s *setcontain.Store, _ *serve.Batcher, e *setcontain.Expr, limit int) ([]uint32, error) {
		// Two copies: the second is served from the batch's
		// subexpression cache.
		items := []setcontain.BatchItem{{Expr: e, Limit: limit}, {Expr: e, Limit: limit}}
		n, err := s.ExecBatchAppend(ctx, items)
		if err != nil {
			return nil, err
		}
		if n != len(items) {
			return nil, fmt.Errorf("processed %d of %d items with a nil error", n, len(items))
		}
		for _, it := range items {
			if it.Err != nil {
				return nil, it.Err
			}
		}
		return sameAnswers([][]uint32{items[0].Out, items[1].Out})
	}},
	{"Batcher.DoExprLimit", false, false, func(ctx context.Context, _ *setcontain.Store, b *serve.Batcher, e *setcontain.Expr, limit int) ([]uint32, error) {
		return b.DoExprLimit(ctx, nil, e, limit)
	}},
}

// contractExprs mixes one-leaf queries of every predicate with boolean
// trees the planner reorders, short-circuits and streams.
var contractExprs = []string{
	"subset{1 2}",
	"equality{4 122}",
	"superset{0 1 2 3 4 5 6 7 8 9}",
	"subset{1} and subset{2}",
	"subset{1} or subset{3 4}",
	"subset{0} and not superset{0 1 2 3}",
	"(subset{1} or equality{2 3}) and not subset{4}",
	"not subset{0}",
}

// TestReadEntryPointsContract holds every read entry point to one
// contract, on every index kind and at GOMAXPROCS 1 and 4: answers
// equal the naive Expr.Eval (limit prefixes included), and a
// pre-cancelled context returns an error — never a nil error with nil
// or partial answers.
func TestReadEntryPointsContract(t *testing.T) {
	c := serveCollection(t)
	kinds := []struct {
		name string
		opts []setcontain.Option
	}{
		{"OIF", []setcontain.Option{setcontain.WithKind(setcontain.OIF)}},
		{"IF", []setcontain.Option{setcontain.WithKind(setcontain.InvertedFile)}},
		{"Sharded", []setcontain.Option{setcontain.WithKind(setcontain.Sharded), setcontain.WithShards(3)}},
	}
	exprs := make([]*setcontain.Expr, len(contractExprs))
	for i, txt := range contractExprs {
		e, err := setcontain.ParseExpr(txt)
		if err != nil {
			t.Fatal(err)
		}
		exprs[i] = e
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, kind.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				idx, err := setcontain.New(c, kind.opts...)
				if err != nil {
					t.Fatal(err)
				}
				store := setcontain.NewStore(idx, 0)
				b := serve.NewBatcher(store, serve.Config{})
				defer b.Close()
				ctx := context.Background()
				for _, e := range exprs {
					full, err := e.Eval(idx)
					if err != nil {
						t.Fatalf("naive %q: %v", e, err)
					}
					_, leaf := e.AsQuery()
					for _, limit := range []int{0, 1, 5} {
						want := full
						if limit > 0 && limit < len(full) {
							want = full[:limit]
						}
						for _, ep := range readEntries {
							if ep.leafOnly && !leaf || ep.noLimit && limit != 0 {
								continue
							}
							got, err := ep.call(ctx, store, b, e, limit)
							if err != nil {
								t.Fatalf("%s %q limit %d: %v", ep.name, e, limit, err)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s %q limit %d: %d ids, naive %d", ep.name, e, limit, len(got), len(want))
							}
							got, err = ep.call(canceled, store, b, e, limit)
							if err == nil {
								t.Fatalf("%s %q limit %d: pre-cancelled ctx returned %d ids and a nil error",
									ep.name, e, limit, len(got))
							}
							if !errors.Is(err, context.Canceled) {
								t.Fatalf("%s %q limit %d: pre-cancelled ctx: %v, want context.Canceled", ep.name, e, limit, err)
							}
						}
					}
				}
			})
		}
	}
}
