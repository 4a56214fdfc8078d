package setcontain

import (
	"errors"
	"fmt"
	"iter"
	"strings"
)

// Predicate names one of the three containment relations.
type Predicate int

// The containment relations.
const (
	// PredicateSubset matches records whose sets contain every query
	// item (the query is a subset of the record).
	PredicateSubset Predicate = iota
	// PredicateEquality matches records whose sets equal the query.
	PredicateEquality
	// PredicateSuperset matches records contained in the query (the
	// query is a superset of the record).
	PredicateSuperset
)

// ErrUnknownPredicate reports an invalid Predicate value. Every
// evaluation path — Eval, EvalAppend, EvalSeq, and the expression
// planner — returns exactly this sentinel (never wrapped twice) for a
// query whose Pred is not one of the three containment relations, so
// callers can test errors.Is(err, ErrUnknownPredicate) uniformly.
var ErrUnknownPredicate = errors.New("setcontain: unknown predicate")

// String returns the predicate's conventional lowercase name, as the
// CLIs spell it: "subset", "equality", or "superset".
func (p Predicate) String() string {
	switch p {
	case PredicateSubset:
		return "subset"
	case PredicateEquality:
		return "equality"
	case PredicateSuperset:
		return "superset"
	default:
		return fmt.Sprintf("Predicate(%d)", int(p))
	}
}

// known reports whether p is one of the three containment relations.
func (p Predicate) known() bool {
	return p == PredicateSubset || p == PredicateEquality || p == PredicateSuperset
}

// ParsePredicate resolves the names produced by Predicate.String,
// case-insensitively.
func ParsePredicate(s string) (Predicate, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "subset":
		return PredicateSubset, nil
	case "equality":
		return PredicateEquality, nil
	case "superset":
		return PredicateSuperset, nil
	default:
		return 0, fmt.Errorf("setcontain: unknown predicate %q (want subset, equality, or superset)", s)
	}
}

// Query is a first-class containment query: a predicate plus its items.
// It evaluates against any Queryable and is the unit Store executes.
type Query struct {
	Pred  Predicate
	Items []Item
}

// SubsetQuery returns a Query matching records that contain every item.
func SubsetQuery(items []Item) Query { return Query{Pred: PredicateSubset, Items: items} }

// EqualityQuery returns a Query matching records equal to items.
func EqualityQuery(items []Item) Query { return Query{Pred: PredicateEquality, Items: items} }

// SupersetQuery returns a Query matching records contained in items.
func SupersetQuery(items []Item) Query { return Query{Pred: PredicateSuperset, Items: items} }

// String renders the query log-friendly, e.g. "subset{3 17 29}".
func (q Query) String() string {
	var b strings.Builder
	b.WriteString(q.Pred.String())
	b.WriteByte('{')
	for i, it := range q.Items {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", it)
	}
	b.WriteByte('}')
	return b.String()
}

// Queryable is anything that answers the three containment predicates:
// an Index, a Reader, or an Engine.
type Queryable interface {
	Subset(qs []Item) ([]uint32, error)
	Equality(qs []Item) ([]uint32, error)
	Superset(qs []Item) ([]uint32, error)
}

// Eval answers the query against t. This is the single dispatch point
// from predicates to engine methods.
func (q Query) Eval(t Queryable) ([]uint32, error) {
	switch q.Pred {
	case PredicateSubset:
		return t.Subset(q.Items)
	case PredicateEquality:
		return t.Equality(q.Items)
	case PredicateSuperset:
		return t.Superset(q.Items)
	default:
		return nil, ErrUnknownPredicate
	}
}

// AppendQueryable is the append-form query surface: answers are
// appended to a caller-provided slice instead of freshly allocated.
// The OIF engine and its readers implement it on the zero-allocation
// query path; EvalAppend falls back to Eval plus a copy for the rest.
type AppendQueryable interface {
	AppendSubset(dst []uint32, qs []Item) ([]uint32, error)
	AppendEquality(dst []uint32, qs []Item) ([]uint32, error)
	AppendSuperset(dst []uint32, qs []Item) ([]uint32, error)
}

// EvalAppend answers the query against t, appending the answer to dst
// and returning the extended slice. With a target implementing
// AppendQueryable (an OIF Index, Engine, or Reader) and warm caches the
// call performs no allocations beyond growing dst; other targets answer
// through Eval and copy. An invalid predicate returns the bare
// ErrUnknownPredicate sentinel on both paths.
func (q Query) EvalAppend(dst []uint32, t Queryable) ([]uint32, error) {
	if !q.Pred.known() {
		return nil, ErrUnknownPredicate
	}
	if at, ok := t.(AppendQueryable); ok {
		switch q.Pred {
		case PredicateSubset:
			return at.AppendSubset(dst, q.Items)
		case PredicateEquality:
			return at.AppendEquality(dst, q.Items)
		default:
			return at.AppendSuperset(dst, q.Items)
		}
	}
	ids, err := q.Eval(t)
	if err != nil {
		return nil, err
	}
	return appendAnswer(dst, ids), nil
}

// appendAnswer appends a freshly computed answer to dst; when dst has
// no backing array to preserve, the answer itself is handed out.
func appendAnswer(dst, ids []uint32) []uint32 {
	if cap(dst) == 0 {
		return ids
	}
	return append(dst, ids...)
}

// EvalSeq answers the query as a lazy sequence, for callers that
// stream large answer sets instead of holding the whole id slice:
//
//	seq, err := setcontain.SubsetQuery(qs).EvalSeq(idx)
//	for id := range seq { ... }
//
// The contract: the error covers evaluation up front, so a non-nil
// sequence never fails mid-iteration; it yields record ids ascending
// and without duplicates; it is single-use (range over it at most
// once); and iteration may be abandoned early at no cost. The current
// engines compute the full answer before the sequence yields (their
// final sort/remap steps need it); the iterator surface frees callers
// from that detail. An invalid predicate returns the bare
// ErrUnknownPredicate sentinel.
func (q Query) EvalSeq(t Queryable) (iter.Seq[uint32], error) {
	return seqOf(q.Eval(t))
}

// seqOf adapts a slice answer (and its error) to the iterator form.
func seqOf(ids []uint32, err error) (iter.Seq[uint32], error) {
	if err != nil {
		return nil, err
	}
	return func(yield func(uint32) bool) {
		for _, id := range ids {
			if !yield(id) {
				return
			}
		}
	}, nil
}
