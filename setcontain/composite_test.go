package setcontain

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// composite is a conjunctive combination of containment constraints —
// the "composite predicates" the paper lists as future work (§7): every
// AllOf item appears in the record, no NoneOf item does, and every
// record item comes from Within (when non-empty). It has no engine
// surface of its own: expr spells it as a boolean expression.
type composite struct {
	AllOf, NoneOf, Within []Item
}

// expr is the composite as an expression:
// And(subset{AllOf}, superset{Within}, Not(Or(subset{x} for x in NoneOf))),
// dropping empty clauses; an entirely empty composite is subset{}, which
// matches every record.
func (q composite) expr() *Expr {
	var kids []*Expr
	if len(q.AllOf) > 0 {
		kids = append(kids, ExprOf(SubsetQuery(q.AllOf)))
	}
	if len(q.Within) > 0 {
		kids = append(kids, ExprOf(SupersetQuery(q.Within)))
	}
	if len(q.NoneOf) > 0 {
		var none []*Expr
		for _, it := range q.NoneOf {
			none = append(none, ExprOf(SubsetQuery([]Item{it})))
		}
		kids = append(kids, Not(Or(none...)))
	}
	if len(kids) == 0 {
		return ExprOf(SubsetQuery(nil))
	}
	return And(kids...)
}

// naiveComposite evaluates a composite by brute force for the oracle.
func naiveComposite(t *testing.T, c *Collection, q composite) []uint32 {
	t.Helper()
	out := []uint32{}
	for id := uint32(1); int(id) <= c.Len(); id++ {
		set, err := c.Record(id)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, it := range q.AllOf {
			if !slices.Contains(set, it) {
				ok = false
			}
		}
		for _, it := range q.NoneOf {
			if slices.Contains(set, it) {
				ok = false
			}
		}
		if len(q.Within) > 0 {
			for _, it := range set {
				if !slices.Contains(q.Within, it) {
					ok = false
				}
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// TestCompositeAgainstOracle checks composite predicates written as
// And(subset, superset, Not(Or(...))) expressions answer exactly the
// brute-force oracle, through the naive, planned, and Store paths.
func TestCompositeAgainstOracle(t *testing.T) {
	c := sampleCollection(t)
	ctx := context.Background()
	for _, kind := range []Kind{OIF, InvertedFile, UnorderedBTree} {
		ix, err := Build(c, Options{Kind: kind, PageSize: 512, BlockPostings: 8})
		if err != nil {
			t.Fatal(err)
		}
		store := NewStore(ix, 0)
		rng := rand.New(rand.NewSource(81))
		for trial := 0; trial < 120; trial++ {
			q := composite{}
			if rng.Intn(2) == 0 {
				for i := 0; i < 1+rng.Intn(3); i++ {
					q.AllOf = append(q.AllOf, Item(rng.Intn(40)))
				}
			}
			if rng.Intn(2) == 0 {
				for i := 0; i < 1+rng.Intn(3); i++ {
					q.NoneOf = append(q.NoneOf, Item(rng.Intn(40)))
				}
			}
			if rng.Intn(3) == 0 {
				for i := 0; i < 5+rng.Intn(10); i++ {
					q.Within = append(q.Within, Item(rng.Intn(40)))
				}
			}
			want := naiveComposite(t, c, q)
			e := q.expr()
			naive, err := e.Eval(ix)
			if err != nil {
				t.Fatalf("%v %+v: naive: %v", kind, q, err)
			}
			planned, err := ix.EvalExpr(e)
			if err != nil {
				t.Fatalf("%v %+v: planned: %v", kind, q, err)
			}
			stored, err := store.ExecExprAppend(ctx, nil, e)
			if err != nil {
				t.Fatalf("%v %+v: store: %v", kind, q, err)
			}
			for name, got := range map[string][]uint32{"naive": naive, "planned": planned, "store": stored} {
				if !slices.Equal(got, want) {
					t.Fatalf("%v %s %q = %d ids, want %d", kind, name, e, len(got), len(want))
				}
			}
		}
	}
}

func TestCompositeEmptyMatchesAll(t *testing.T) {
	c := sampleCollection(t)
	ix, err := Build(c, Options{PageSize: 512, BlockPostings: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.EvalExpr(composite{}.expr())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != c.Len() {
		t.Fatalf("empty composite matched %d of %d", len(got), c.Len())
	}
}

// joinByLoop is the index-nested-loops containment join the joins
// example runs: every outer record probes the index with pred, and fn
// receives the non-empty answers. Subset means "inner contains the
// outer record", Superset "inner is contained in it", Equality exact
// duplicates across the two collections.
func joinByLoop(t *testing.T, ix *Index, outer *Collection, pred Predicate, fn func(outerID uint32, innerIDs []uint32)) {
	t.Helper()
	for id := uint32(1); int(id) <= outer.Len(); id++ {
		set, err := outer.Record(id)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := Query{Pred: pred, Items: set}.Eval(ix)
		if err != nil {
			t.Fatal(err)
		}
		if len(inner) > 0 {
			fn(id, inner)
		}
	}
}

func TestJoinAgainstOracle(t *testing.T) {
	// Outer: 200 small sets; inner: the sample collection.
	inner := sampleCollection(t)
	ix, err := Build(inner, Options{PageSize: 512, BlockPostings: 8})
	if err != nil {
		t.Fatal(err)
	}
	outer := NewCollection(40)
	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 200; i++ {
		k := 1 + rng.Intn(3)
		set := make([]Item, k)
		for j := range set {
			set[j] = Item(rng.Intn(40))
		}
		if _, err := outer.Add(set); err != nil {
			t.Fatal(err)
		}
	}

	var pairs, rows int
	joinByLoop(t, ix, outer, PredicateSubset, func(outerID uint32, innerIDs []uint32) {
		oSet, err := outer.Record(outerID)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveComposite(t, inner, composite{AllOf: oSet})
		if !slices.Equal(innerIDs, want) {
			t.Fatalf("join row %d: %d ids, want %d", outerID, len(innerIDs), len(want))
		}
		pairs += len(innerIDs)
		rows++
	})
	if pairs == 0 {
		t.Fatal("join produced no pairs")
	}
	// Every outer record with a non-empty oracle answer produced a row.
	wantRows := 0
	for id := uint32(1); int(id) <= outer.Len(); id++ {
		oSet, _ := outer.Record(id)
		if len(naiveComposite(t, inner, composite{AllOf: oSet})) > 0 {
			wantRows++
		}
	}
	if rows != wantRows {
		t.Fatalf("join produced %d rows, want %d", rows, wantRows)
	}
}

func TestJoinEqualityFindsDuplicatesAcrossCollections(t *testing.T) {
	a := NewCollection(10)
	b := NewCollection(10)
	a.Add([]Item{1, 2})
	a.Add([]Item{3})
	b.Add([]Item{1, 2})
	b.Add([]Item{4, 5})
	b.Add([]Item{1, 2})
	ix, err := Build(b, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	matches := map[uint32][]uint32{}
	joinByLoop(t, ix, a, PredicateEquality, func(o uint32, in []uint32) {
		matches[o] = append([]uint32(nil), in...)
	})
	if len(matches) != 1 || len(matches[1]) != 2 {
		t.Fatalf("equality join = %v, want outer 1 -> two inner ids", matches)
	}
}
