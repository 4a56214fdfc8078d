package repro

// Streaming-execution benchmarks: the three artifacts the streaming PR
// gates on. BenchmarkExprStream holds the streaming evaluator (AND-leg
// candidate pushdown through a persistent free list) to zero steady-
// state allocations against the materializing baseline.
// BenchmarkExprLimit measures LIMIT-driven early exit on an
// inverted-file index, where lazy posting cursors abandon the undecoded
// list tails after the first ids. BenchmarkExprCSE measures the
// cross-query subexpression cache on a micro-batch sharing a hot
// subtree, against answering the same batch one expression at a time.

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/setcontain"
)

// streamBenchIndex builds a warm index of the given kind over the
// shared synthetic scale and splits its domain into hot and cold items
// by support.
func streamBenchIndex(b *testing.B, kind setcontain.Kind) (*setcontain.Index, []setcontain.Item, []setcontain.Item) {
	b.Helper()
	cfg := benchCfg()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		b.Fatal(err)
	}
	idx, err := setcontain.New(setcontain.WrapDataset(d),
		setcontain.WithKind(kind),
		setcontain.WithCachePages(hotPoolPages),
	)
	if err != nil {
		b.Fatal(err)
	}
	prof := idx.Supports()
	var order []setcontain.Item
	for it, n := range prof.PerItem {
		if n > 0 {
			order = append(order, setcontain.Item(it))
		}
	}
	if len(order) < 8 {
		b.Skip("domain too small at this scale")
	}
	sort.Slice(order, func(i, j int) bool { return prof.Support(order[i]) > prof.Support(order[j]) })
	return idx, order[:len(order)/10+1], order[len(order)*3/4:]
}

// BenchmarkExprStream compares the streaming evaluator to the
// materializing one on an AND workload whose second leg stays non-empty
// (a hot pair, not a cold triple), so the intersection is real work in
// both modes: the materializing path decodes the second leg's full list
// and intersects, the streaming path pushes the accumulator down as
// candidates and only confirms those. Both sub-benchmarks reuse one
// evaluator and one answer buffer — the streaming side's steady state
// must allocate nothing.
func BenchmarkExprStream(b *testing.B) {
	idx, hot, _ := streamBenchIndex(b, setcontain.OIF)
	rng := rand.New(rand.NewSource(43))
	exprs := make([]*setcontain.Expr, 64)
	plans := make([]*setcontain.ExprPlan, len(exprs))
	prof := idx.Supports()
	var err error
	for i := range exprs {
		a := hot[rng.Intn(len(hot))]
		c := hot[rng.Intn(len(hot)/2)]
		exprs[i] = setcontain.And(
			setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{a})),
			setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{c})),
		)
		if plans[i], err = setcontain.PlanExpr(exprs[i], prof); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name string
		mode setcontain.EvalMode
	}{
		{"streaming", setcontain.EvalAuto},
		{"materializing", setcontain.EvalMaterialize},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ev := setcontain.NewEvaluator(mode.mode)
			dst := make([]uint32, 0, 4096)
			// Warm-up: touch every page, grow the free list and dst to
			// their high-water marks.
			for _, p := range plans {
				if dst, _, err = ev.EvalAppend(dst[:0], p, idx); err != nil {
					b.Fatal(err)
				}
			}
			var streamed, evaluated int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var st setcontain.ExprEvalStats
				if dst, st, err = ev.EvalAppend(dst[:0], plans[i%len(plans)], idx); err != nil {
					b.Fatal(err)
				}
				streamed += st.StreamedLeaves
				evaluated += st.EvaluatedLeaves
			}
			b.StopTimer()
			if evaluated > 0 {
				b.ReportMetric(float64(streamed)/float64(evaluated), "streamed-leaf-rate")
			}
		})
	}
}

// BenchmarkExprLimit measures LIMIT-driven early exit: an OR of hot
// subset leaves on an inverted-file index, answered limited (first 10
// ids through lazy posting cursors and the streaming union) and
// unlimited (every hot list decoded and merged). The limited/unlimited
// ratio is the early-exit artifact this PR gates on.
func BenchmarkExprLimit(b *testing.B) {
	idx, hot, _ := streamBenchIndex(b, setcontain.InvertedFile)
	rng := rand.New(rand.NewSource(44))
	exprs := make([]*setcontain.Expr, 64)
	plans := make([]*setcontain.ExprPlan, len(exprs))
	prof := idx.Supports()
	var err error
	for i := range exprs {
		kids := make([]*setcontain.Expr, 3)
		for j := range kids {
			kids[j] = setcontain.ExprOf(setcontain.SubsetQuery(
				[]setcontain.Item{hot[rng.Intn(len(hot))]}))
		}
		exprs[i] = setcontain.Or(kids...)
		if plans[i], err = setcontain.PlanExpr(exprs[i], prof); err != nil {
			b.Fatal(err)
		}
	}
	ev := setcontain.NewEvaluator(setcontain.EvalAuto)
	dst := make([]uint32, 0, 4096)
	for _, p := range plans {
		if dst, _, err = ev.EvalAppend(dst[:0], p, idx); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("limit10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dst, _, err = ev.EvalLimitAppend(dst[:0], plans[i%len(plans)], idx, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dst, _, err = ev.EvalAppend(dst[:0], plans[i%len(plans)], idx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExprCSE measures the cross-query subexpression cache: a
// micro-batch of eight ORs sharing one hot AND subtree, answered as one
// ExecBatchAppend (the shared subtree evaluated once, seven cache
// hits) versus one ExecExprAppend per expression (the subtree
// re-evaluated every time). OR keeps the unshared legs cheap, so the
// shared work dominates and the batched/separate ratio is the cache's
// win.
func BenchmarkExprCSE(b *testing.B) {
	idx, hot, cold := streamBenchIndex(b, setcontain.OIF)
	store := setcontain.NewStore(idx, 0)
	shared := setcontain.And(
		setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{hot[0]})),
		setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{hot[1]})),
	)
	rng := rand.New(rand.NewSource(45))
	exprs := make([]*setcontain.Expr, 8)
	for i := range exprs {
		exprs[i] = setcontain.Or(shared, setcontain.ExprOf(setcontain.SubsetQuery(
			[]setcontain.Item{cold[rng.Intn(len(cold))]})))
	}
	ctx := context.Background()
	b.Run("batched", func(b *testing.B) {
		items := make([]setcontain.BatchItem, len(exprs))
		dsts := make([][]uint32, len(exprs))
		for i := range dsts {
			dsts[i] = make([]uint32, 0, 4096)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range items {
				items[j] = setcontain.BatchItem{Expr: exprs[j], Dst: dsts[j][:0]}
			}
			if _, err := store.ExecBatchAppend(ctx, items); err != nil {
				b.Fatal(err)
			}
			for j := range items {
				if items[j].Err != nil {
					b.Fatal(items[j].Err)
				}
				dsts[j] = items[j].Out
			}
		}
	})
	b.Run("separate", func(b *testing.B) {
		dst := make([]uint32, 0, 4096)
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range exprs {
				if dst, err = store.ExecExprAppend(ctx, dst[:0], e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
