// Containment joins and composite predicates — the query classes the
// paper's §6 surveys and its §7 names as future work. The scenario:
// a catalogue of product "bundles" joined against customer baskets.
//
//   - "Which baskets contain each bundle?" is a subset containment join:
//     for every bundle (outer), find the baskets (inner) whose item set
//     contains it.
//   - "Baskets with bread and milk but no candles, drawn entirely from
//     groceries" is a composite predicate: a boolean expression
//     And(subset, superset, Not(Or(forbidden items))).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/setcontain"
)

const domain = 400 // product vocabulary

func main() {
	rng := rand.New(rand.NewSource(11))

	// Inner relation: 30 000 customer baskets, skewed item popularity.
	baskets := setcontain.NewCollection(domain)
	for i := 0; i < 30000; i++ {
		n := 2 + rng.Intn(10)
		seen := map[setcontain.Item]bool{}
		set := make([]setcontain.Item, 0, n)
		for len(set) < n {
			u := rng.Float64()
			it := setcontain.Item(u * u * domain)
			if it >= domain {
				it = domain - 1
			}
			if !seen[it] {
				seen[it] = true
				set = append(set, it)
			}
		}
		if _, err := baskets.Add(set); err != nil {
			log.Fatal(err)
		}
	}
	idx, err := setcontain.New(baskets)
	if err != nil {
		log.Fatal(err)
	}

	// Outer relation: 50 curated bundles of 2-3 popular products.
	bundles := setcontain.NewCollection(domain)
	for i := 0; i < 50; i++ {
		n := 2 + rng.Intn(2)
		seen := map[setcontain.Item]bool{}
		set := make([]setcontain.Item, 0, n)
		for len(set) < n {
			it := setcontain.Item(rng.Intn(60)) // popular range
			if !seen[it] {
				seen[it] = true
				set = append(set, it)
			}
		}
		if _, err := bundles.Add(set); err != nil {
			log.Fatal(err)
		}
	}

	// Containment join: bundle ⊆ basket. An index-nested-loops join is
	// just a loop over the outer relation, each record probing the
	// inner index with one containment query.
	var pairs, bestBundle int
	var bestCount int
	for bundleID := uint32(1); int(bundleID) <= bundles.Len(); bundleID++ {
		set, err := bundles.Record(bundleID)
		if err != nil {
			log.Fatal(err)
		}
		basketIDs, err := idx.Eval(setcontain.SubsetQuery(set))
		if err != nil {
			log.Fatal(err)
		}
		pairs += len(basketIDs)
		if len(basketIDs) > bestCount {
			bestCount = len(basketIDs)
			bestBundle = int(bundleID)
		}
	}
	bestSet, _ := bundles.Record(uint32(bestBundle))
	fmt.Printf("containment join: %d bundles x %d baskets -> %d qualifying pairs\n",
		bundles.Len(), baskets.Len(), pairs)
	fmt.Printf("best-selling bundle #%d %v appears in %d baskets\n\n",
		bestBundle, bestSet, bestCount)

	// Composite predicate: baskets with items 3 AND 7, without item 0,
	// drawn entirely from the 100 most popular products — one boolean
	// expression over the three containment predicates.
	within := make([]setcontain.Item, 100)
	for i := range within {
		within[i] = setcontain.Item(i)
	}
	q := setcontain.And(
		setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{3, 7})),
		setcontain.ExprOf(setcontain.SupersetQuery(within)),
		setcontain.Not(setcontain.Or(
			setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{0})),
		)),
	)
	ids, err := idx.EvalExpr(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composite query {3,7} ∧ ¬{0} ∧ ⊆top-100: %d baskets\n", len(ids))

	st := idx.CacheStats()
	fmt.Printf("\ntotal page reads: %d (seq %d, near %d, random %d)\n",
		st.PageReads, st.Sequential, st.Near, st.Random)
}
