package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/naive"
	qgen "repro/internal/workload"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// digest is an answer's fingerprint: its length and an order-sensitive
// FNV-1a hash of its ids. Expected digests are computed before timing,
// so checking a response costs one pass over its ids.
type digest struct {
	n int
	h uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() digest { return digest{h: fnvOffset} }

func (d *digest) add(id uint32) {
	d.n++
	d.h = (d.h ^ uint64(id)) * fnvPrime
}

func digestOf(ids []uint32) digest {
	d := newDigest()
	for _, id := range ids {
		d.add(id)
	}
	return d
}

// request is one pool entry: a query in its in-process form (for the
// layer ladder), its premarshalled POST /query body, and the digest of
// its correct answer.
type request struct {
	expr  *setcontain.Expr
	limit int
	body  []byte
	want  digest
}

// leaf reports the request's single containment query, when it is one.
func (r *request) leaf() (setcontain.Query, bool) {
	if r.limit != 0 {
		return setcontain.Query{}, false
	}
	return r.expr.AsQuery()
}

// generate builds the workload's synthetic collection: the paper's §5
// generator (Zipf θ=0.8 over 2000 items, 2–20 items per record).
func generate(records int, seed int64) (*dataset.Dataset, error) {
	c := dataset.DefaultSynthetic(records)
	c.Seed = seed
	return dataset.GenerateSynthetic(c)
}

// paperSizes are the query cardinalities of the §5 single-leaf mix.
var paperSizes = []int{2, 4, 8}

// paperLeaves draws perClass queries for each predicate × size class
// of the §5 mix, by the paper's rule that every query has an answer
// (subset and superset queries are built around an existing record,
// equality queries are an existing record).
func paperLeaves(d *dataset.Dataset, seed int64, perClass int) ([]setcontain.Query, error) {
	gen := qgen.NewGenerator(d, seed)
	var out []setcontain.Query
	for _, kind := range []qgen.Kind{qgen.Subset, qgen.Equality, qgen.Superset} {
		for _, size := range paperSizes {
			qs := gen.Queries(kind, size, perClass)
			if len(qs) != perClass {
				return nil, fmt.Errorf("generator made %d of %d %s queries of size %d", len(qs), perClass, kind, size)
			}
			for _, q := range qs {
				out = append(out, setcontain.Query{Pred: predOf(kind), Items: q.Items})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

func predOf(k qgen.Kind) setcontain.Predicate {
	switch k {
	case qgen.Equality:
		return setcontain.PredicateEquality
	case qgen.Superset:
		return setcontain.PredicateSuperset
	default:
		return setcontain.PredicateSubset
	}
}

// hotItems returns the n most frequent items of d, most frequent first.
func hotItems(d *dataset.Dataset, n int) []setcontain.Item {
	counts := make([]int, d.DomainSize()+1)
	for _, r := range d.Records() {
		for _, it := range r.Set {
			counts[it]++
		}
	}
	items := make([]setcontain.Item, 0, len(counts))
	for it := 1; it < len(counts); it++ {
		items = append(items, setcontain.Item(it))
	}
	sort.SliceStable(items, func(i, j int) bool { return counts[items[i]] > counts[items[j]] })
	if len(items) > n {
		items = items[:n]
	}
	return items
}

// exprMix draws the expr-hot pool: 40% ANDs of 2–4 hot-item subset
// leaves, each carrying one of 8 shared two-item hot leaves; 20%
// AND-NOT; 20% ORs answered with limit 10; 20% §5 single-leaf queries.
// Expressions whose answer is empty are dropped and redrawn, so every
// request has an answer, as in the paper's rule.
func exprMix(d *dataset.Dataset, seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	hot := hotItems(d, 24)
	shared := make([]*setcontain.Expr, 8)
	for i := range shared {
		shared[i] = setcontain.ExprOf(setcontain.SubsetQuery(distinct(rng, hot, 2)))
	}
	sub := func(k int) *setcontain.Expr {
		return setcontain.ExprOf(setcontain.SubsetQuery(distinct(rng, hot, k)))
	}
	draw := func(class int) (*setcontain.Expr, int) {
		switch class {
		case 0, 1:
			kids := []*setcontain.Expr{shared[rng.Intn(len(shared))]}
			for j := 1 + rng.Intn(3); j > 0; j-- {
				kids = append(kids, sub(1))
			}
			return setcontain.And(kids...), 0
		case 2:
			return setcontain.And(sub(1+rng.Intn(2)), setcontain.Not(sub(1+rng.Intn(2)))), 0
		default:
			return setcontain.Or(sub(2), sub(2), sub(3)), 10
		}
	}
	// need[c] is class c's share of n; classes 0 and 1 are both ANDs,
	// class 4 the single leaves.
	var need [5]int
	for i := 0; i < n; i++ {
		need[i%5]++
	}
	leaves, err := paperLeaves(d, seed+1, (need[4]+8)/9)
	if err != nil {
		return nil, err
	}
	var byClass [5][]request
	singles, noLimits := leafExprs(leaves[:need[4]])
	if byClass[4], err = buildPool(d, singles, noLimits); err != nil {
		return nil, err
	}
	// Draw a quarter more than each class lacks, keep the non-empty
	// answers, and repeat while any class is short.
	for round := 0; ; round++ {
		var exprs []*setcontain.Expr
		var limits, classes []int
		for c := 0; c < 4; c++ {
			if short := need[c] - len(byClass[c]); short > 0 {
				for i := 0; i < short+short/4+2; i++ {
					e, limit := draw(c)
					exprs, limits, classes = append(exprs, e), append(limits, limit), append(classes, c)
				}
			}
		}
		if len(exprs) == 0 {
			break
		}
		if round == 20 {
			return nil, fmt.Errorf("expr-hot: too few expressions with answers over %d records", d.Len())
		}
		cands, err := buildPool(d, exprs, limits)
		if err != nil {
			return nil, err
		}
		for i, r := range cands {
			if c := classes[i]; r.want.n > 0 && len(byClass[c]) < need[c] {
				byClass[c] = append(byClass[c], r)
			}
		}
	}
	// Interleave the classes.
	pool := make([]request, 0, n)
	for i := 0; i < n; i++ {
		c := i % 5
		pool = append(pool, byClass[c][0])
		byClass[c] = byClass[c][1:]
	}
	return pool, nil
}

// distinct draws k distinct items from pool.
func distinct(rng *rand.Rand, pool []setcontain.Item, k int) []setcontain.Item {
	idx := rng.Perm(len(pool))[:k]
	out := make([]setcontain.Item, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// naiveScan answers containment predicates by scanning the collection
// with internal/naive — the oracle. As a setcontain.Queryable it also
// drives the naive expression reference (Expr.Eval).
type naiveScan struct{ d *dataset.Dataset }

func naiveOf(d *dataset.Dataset) naiveScan { return naiveScan{d} }

func (n naiveScan) Subset(qs []setcontain.Item) ([]uint32, error) {
	return naive.Subset(n.d, qs), nil
}
func (n naiveScan) Equality(qs []setcontain.Item) ([]uint32, error) {
	return naive.Equality(n.d, qs), nil
}
func (n naiveScan) Superset(qs []setcontain.Item) ([]uint32, error) {
	return naive.Superset(n.d, qs), nil
}

// expected computes the oracle answer of an expression with limit.
func expected(d *dataset.Dataset, e *setcontain.Expr, limit int) ([]uint32, error) {
	ids, err := e.Eval(naiveOf(d))
	if err != nil {
		return nil, err
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	return ids, nil
}

// buildPool marshals each expression into its request body and computes
// its expected digest with the oracle, fanning the scans out over
// GOMAXPROCS goroutines.
func buildPool(d *dataset.Dataset, exprs []*setcontain.Expr, limits []int) ([]request, error) {
	pool := make([]request, len(exprs))
	for i, e := range exprs {
		spec := serve.SpecOfExpr(e)
		spec.Limit = limits[i]
		body, err := json.Marshal(serve.QueryRequest{Queries: []serve.QuerySpec{spec}})
		if err != nil {
			return nil, err
		}
		pool[i] = request{expr: e, limit: limits[i], body: body}
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += workers {
				ids, err := expected(d, pool[i].expr, pool[i].limit)
				if err != nil {
					mu.Lock()
					ferr = err
					mu.Unlock()
					return
				}
				pool[i].want = digestOf(ids)
			}
		}(w)
	}
	wg.Wait()
	return pool, ferr
}

// leafExprs lifts single-leaf queries into one-leaf expressions.
func leafExprs(qs []setcontain.Query) ([]*setcontain.Expr, []int) {
	exprs := make([]*setcontain.Expr, len(qs))
	for i, q := range qs {
		exprs[i] = setcontain.ExprOf(q)
	}
	return exprs, make([]int, len(qs))
}
