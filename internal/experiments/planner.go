package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/setcontain"
)

// PlannerResult reports the boolean-expression planner sweep: the same
// AND-heavy workload answered twice, once through the cost-based
// planner (rarest-first leaf order, empty-intermediate short-circuit)
// and once through the naive left-to-right baseline that evaluates
// every leaf in written order.
type PlannerResult struct {
	Queries int
	Theta   float64
	// PlannedTime and NaiveTime are the total evaluation wall times.
	PlannedTime time.Duration
	NaiveTime   time.Duration
	// EvaluatedLeaves and SkippedLeaves account the planned run's leaf
	// work; the naive baseline always evaluates every leaf.
	EvaluatedLeaves int
	SkippedLeaves   int
	TotalLeaves     int
	// LimitN and the latency percentiles report the early-exit sweep: a
	// hot OR workload on an inverted-file index answered limited
	// (first LimitN ids, streaming union with early exit) and unlimited
	// (full materialized answer), per-query wall times.
	LimitN                             int
	LimitedP50, LimitedP90, LimitedP99 time.Duration
	FullP50, FullP90, FullP99          time.Duration
}

// Speedup is the naive/planned wall-time ratio (>1 means the planner
// pays off).
func (r PlannerResult) Speedup() float64 {
	if r.PlannedTime <= 0 {
		return 0
	}
	return float64(r.NaiveTime) / float64(r.PlannedTime)
}

// RunPlanner measures what the cost-based expression planner buys on a
// skewed collection. The workload is adversarial for a left-to-right
// evaluator: every expression is an AND written widest-leaf-first — a
// subset leaf on one of the hottest items, then a subset leaf on a
// pair of rare items — so the naive order materializes the huge hot
// list before the rare pair shrinks it, while the planner's
// support-based costs reorder the rare pair first and usually
// short-circuit the hot leaf away entirely. Both paths must return
// byte-identical answers; the sweep reports wall time, leaf work, and
// the speedup.
func RunPlanner(cfg Config, rounds int) (PlannerResult, error) {
	cfg.fill()
	if rounds <= 0 {
		rounds = 5
	}
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		return PlannerResult{}, err
	}
	idx, err := setcontain.New(setcontain.WrapDataset(d),
		setcontain.WithPageSize(cfg.PageSize),
		setcontain.WithBlockPostings(cfg.BlockPostings),
		setcontain.WithCachePages(cfg.PoolPages),
	)
	if err != nil {
		return PlannerResult{}, fmt.Errorf("experiments: planner build: %w", err)
	}

	// Split the domain by support into hot and cold halves; the profile
	// is computed once, exactly as a Store caches it.
	prof := idx.Supports()
	order := make([]setcontain.Item, 0, len(prof.PerItem))
	for it, n := range prof.PerItem {
		if n > 0 {
			order = append(order, setcontain.Item(it))
		}
	}
	if len(order) < 8 {
		return PlannerResult{}, fmt.Errorf("experiments: planner needs a wider domain (have %d supported items)", len(order))
	}
	sort.Slice(order, func(i, j int) bool { return prof.Support(order[i]) > prof.Support(order[j]) })
	hot, cold := order[:len(order)/10+1], order[len(order)*3/4:]

	rng := rand.New(rand.NewSource(cfg.Seed + 3000))
	n := 8 * cfg.QueriesPerSize
	exprs := make([]*setcontain.Expr, n)
	for i := range exprs {
		wide := setcontain.ExprOf(setcontain.SubsetQuery(
			[]setcontain.Item{hot[rng.Intn(len(hot))]}))
		// Three items from the coldest quartile rarely co-occur, so this
		// leaf's answer is usually empty — the planner then never touches
		// the wide leaf at all.
		rare := setcontain.ExprOf(setcontain.SubsetQuery(
			[]setcontain.Item{
				cold[rng.Intn(len(cold))],
				cold[rng.Intn(len(cold))],
				cold[rng.Intn(len(cold))],
			}))
		// Written widest-first: the naive baseline's worst order.
		exprs[i] = setcontain.And(wide, rare)
	}

	res := PlannerResult{Queries: n * rounds, Theta: prof.Theta}
	w := cfg.Out
	fmt.Fprintf(w, "=== Expression planner sweep (|D|=%d, %d AND-expressions x %d rounds, theta=%.3f) ===\n",
		d.Len(), n, rounds, prof.Theta)

	plans := make([]*setcontain.ExprPlan, n)
	for i, e := range exprs {
		if plans[i], err = idx.PlanExpr(e); err != nil {
			return PlannerResult{}, err
		}
		res.TotalLeaves += e.Leaves() * rounds
	}

	// Correctness first: the planner must not change a single answer.
	for i, e := range exprs {
		planned, _, err := plans[i].Eval(idx)
		if err != nil {
			return PlannerResult{}, err
		}
		naive, err := e.Eval(idx)
		if err != nil {
			return PlannerResult{}, err
		}
		if len(planned) != len(naive) {
			return PlannerResult{}, fmt.Errorf("experiments: planner diverges on %s: %d vs %d ids", e, len(planned), len(naive))
		}
		for j := range naive {
			if planned[j] != naive[j] {
				return PlannerResult{}, fmt.Errorf("experiments: planner diverges on %s at id %d", e, j)
			}
		}
	}

	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range exprs {
			_, st, err := plans[i].Eval(idx)
			if err != nil {
				return PlannerResult{}, err
			}
			res.EvaluatedLeaves += st.EvaluatedLeaves
			res.SkippedLeaves += st.SkippedLeaves
		}
	}
	res.PlannedTime = time.Since(start)

	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, e := range exprs {
			if _, err := e.Eval(idx); err != nil {
				return PlannerResult{}, err
			}
		}
	}
	res.NaiveTime = time.Since(start)

	fmt.Fprintf(w, "planned: %-12s  (%d/%d leaves evaluated, %d short-circuited)\n",
		res.PlannedTime.Round(time.Microsecond), res.EvaluatedLeaves, res.TotalLeaves, res.SkippedLeaves)
	fmt.Fprintf(w, "naive:   %-12s  (every leaf, written order)\n", res.NaiveTime.Round(time.Microsecond))
	fmt.Fprintf(w, "speedup: %.2fx\n", res.Speedup())

	// Early-exit sweep: the same dataset behind an inverted-file index
	// (its posting cursors stream lazily, so a limit abandons undecoded
	// list tail), answered through wide hot ORs — the worst case for a
	// materializing evaluator, the best case for limit pushdown.
	if err := runLimitSweep(&res, d, cfg, hot, rounds); err != nil {
		return PlannerResult{}, err
	}
	fmt.Fprintf(w, "--- early exit (limit %d, OR-of-hot-subsets, inverted file) ---\n", res.LimitN)
	fmt.Fprintf(w, "limited:   p50 %-10s p90 %-10s p99 %s\n",
		res.LimitedP50.Round(time.Microsecond), res.LimitedP90.Round(time.Microsecond), res.LimitedP99.Round(time.Microsecond))
	fmt.Fprintf(w, "unlimited: p50 %-10s p90 %-10s p99 %s\n",
		res.FullP50.Round(time.Microsecond), res.FullP90.Round(time.Microsecond), res.FullP99.Round(time.Microsecond))
	if res.LimitedP50 > 0 {
		fmt.Fprintf(w, "p50 speedup: %.2fx\n", float64(res.FullP50)/float64(res.LimitedP50))
	}
	return res, nil
}

// runLimitSweep fills the PlannerResult's latency percentiles: per-query
// wall times for EvalExprLimit(·, 10) versus the unlimited EvalExpr over
// an OR-of-hot-subset workload on an inverted-file index.
func runLimitSweep(res *PlannerResult, d *dataset.Dataset, cfg Config, hot []setcontain.Item, rounds int) error {
	idx, err := setcontain.New(setcontain.WrapDataset(d),
		setcontain.WithKind(setcontain.InvertedFile),
		setcontain.WithPageSize(cfg.PageSize),
		setcontain.WithCachePages(cfg.PoolPages),
	)
	if err != nil {
		return fmt.Errorf("experiments: limit sweep build: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 4000))
	n := 4 * cfg.QueriesPerSize
	exprs := make([]*setcontain.Expr, n)
	for i := range exprs {
		kids := make([]*setcontain.Expr, 3)
		for j := range kids {
			kids[j] = setcontain.ExprOf(setcontain.SubsetQuery(
				[]setcontain.Item{hot[rng.Intn(len(hot))]}))
		}
		exprs[i] = setcontain.Or(kids...)
	}
	res.LimitN = 10
	limited := make([]time.Duration, 0, n*rounds)
	full := make([]time.Duration, 0, n*rounds)
	for r := 0; r < rounds; r++ {
		for _, e := range exprs {
			t0 := time.Now()
			if _, err := idx.EvalExprLimit(e, res.LimitN); err != nil {
				return err
			}
			limited = append(limited, time.Since(t0))
			t0 = time.Now()
			if _, err := idx.EvalExpr(e); err != nil {
				return err
			}
			full = append(full, time.Since(t0))
		}
	}
	res.LimitedP50, res.LimitedP90, res.LimitedP99 = percentiles(limited)
	res.FullP50, res.FullP90, res.FullP99 = percentiles(full)
	return nil
}

// percentiles sorts samples in place and reads the p50/p90/p99 marks.
func percentiles(samples []time.Duration) (p50, p90, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(p float64) time.Duration {
		return samples[int(float64(len(samples)-1)*p)]
	}
	return at(0.50), at(0.90), at(0.99)
}
