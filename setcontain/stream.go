package setcontain

import (
	"strings"

	"repro/internal/invfile"
)

// The streaming execution tier under ExprPlan. Three mechanisms let a
// planned evaluation touch less of the index than full per-leaf
// materialization:
//
//   - Streaming AND pushdown: once an AND node holds a non-empty
//     intermediate, a later subset leaf is answered *within* that
//     candidate set (subsetWithiner) — the OIF validates Theorem 1's
//     discard rule per candidate instead of building the leaf's full
//     answer and intersecting.
//   - Lazy leaf cursors: on an inverted file a subset leaf decodes its
//     postings on demand (subsetCursorer); a limit-bounded evaluation
//     that stops after n ids never touches the bytes it didn't reach.
//   - Cross-query subexpression caching: Store.ExecBatchAppend
//     canonicalizes plan subtrees across one micro-batch and evaluates
//     each distinct shared subtree once (cseState).
//
// Nodes whose results feed more than one consumer — shared CSE
// subtrees — fall back to materialization, which is what makes the
// streaming answers byte-identical to the materializing evaluator.

// EvalMode selects how a planned evaluation executes its leaves.
type EvalMode int

const (
	// EvalAuto uses every streaming capability the target offers:
	// candidate pushdown into subset leaves under AND, lazy posting
	// cursors under a limit. Answers are byte-identical to
	// EvalMaterialize; only the work to produce them differs.
	EvalAuto EvalMode = iota
	// EvalMaterialize forces full leaf materialization — the reference
	// behaviour, and the baseline BenchmarkExprStream measures against.
	EvalMaterialize
)

// Evaluator carries the reusable state of planned evaluations: the free
// list recycling intermediate buffers across calls and the evaluation
// mode. The zero value streams (EvalAuto) with an empty free list; a
// long-lived Evaluator reaching steady state evaluates expressions with
// zero heap allocations on an append-capable target. An Evaluator is
// not safe for concurrent use — pool them like readers (Store does).
type Evaluator struct {
	// Mode selects streaming (EvalAuto, the zero value) or forced
	// materialization (EvalMaterialize).
	Mode EvalMode

	free [][]uint32
}

// NewEvaluator returns an evaluator in the given mode.
func NewEvaluator(mode EvalMode) *Evaluator { return &Evaluator{Mode: mode} }

// Eval answers the planned expression against t; see ExprPlan.Eval.
func (evr *Evaluator) Eval(p *ExprPlan, t Queryable) ([]uint32, ExprEvalStats, error) {
	ids, st, err := evr.EvalAppend(nil, p, t)
	if err != nil {
		return nil, st, err
	}
	if ids == nil {
		ids = []uint32{}
	}
	return ids, st, nil
}

// EvalAppend answers the planned expression against t, appending to
// dst; see ExprPlan.EvalAppend. Intermediates recycle through the
// evaluator's free list, which persists across calls — the reuse that
// makes steady-state evaluation allocation-free.
func (evr *Evaluator) EvalAppend(dst []uint32, p *ExprPlan, t Queryable) ([]uint32, ExprEvalStats, error) {
	return evr.run(dst, p, t, nil, 0)
}

// EvalLimitAppend answers the first `limit` ids of the planned
// expression against t, appending to dst — the early-exit entry point.
// The evaluation is cursor-driven: subset leaves on a cursor-capable
// target (the inverted file) decode postings lazily, OR nodes k-way
// merge their children's cursors in ascending id order, and everything
// else materializes into a cursor over its answer. Once `limit` ids
// have been produced the remaining cursor state is abandoned — postings
// past the stop point are never decoded. limit <= 0 means no limit.
//
// The result is exactly the first `limit` ids of the unlimited answer
// (ascending, unique).
func (evr *Evaluator) EvalLimitAppend(dst []uint32, p *ExprPlan, t Queryable, limit int) ([]uint32, ExprEvalStats, error) {
	return evr.run(dst, p, t, nil, limit)
}

// run is the one evaluation routine behind every planned entry point:
// the plan against t, appended to dst, with a batch's shared
// subexpression cache when cse is non-nil (shared subtrees materialize
// through it, so batchmates reuse them), cursor-driven up to `limit`
// ids when limit > 0.
func (evr *Evaluator) run(dst []uint32, p *ExprPlan, t Queryable, cse *cseState, limit int) ([]uint32, ExprEvalStats, error) {
	ev := evr.newEval(t)
	ev.cse = cse
	if limit > 0 {
		cur, err := ev.cursor(p.Root)
		if err != nil {
			return nil, ev.stats, err
		}
		for n := 0; n < limit; n++ {
			id, ok, err := cur.Next()
			if err != nil {
				return nil, ev.stats, err
			}
			if !ok {
				break
			}
			dst = append(dst, id)
		}
		return dst, ev.stats, nil
	}
	ids, owned, err := ev.eval(p.Root)
	if err != nil {
		return nil, ev.stats, err
	}
	if cap(dst) == 0 && owned {
		// No backing array to preserve: hand the result buffer out
		// directly (it leaves the free list, which simply grows a fresh
		// one next time). Cached batch results are never owned, so they
		// stay private to the batch.
		if ids == nil {
			ids = []uint32{}
		}
		return ids, ev.stats, nil
	}
	out := append(dst, ids...)
	ev.put(ids, owned)
	return out, ev.stats, nil
}

// newEval starts one evaluation against t, discovering t's streaming
// capabilities unless the mode forbids using them.
func (evr *Evaluator) newEval(t Queryable) exprEval {
	ev := exprEval{t: t, owner: evr}
	if evr.Mode == EvalAuto {
		ev.within = withinerOf(t)
		ev.cursors = cursorerOf(t)
	}
	return ev
}

// --- streaming capabilities ---------------------------------------------

// subsetWithiner is the candidate-pushdown capability: the subset
// answer restricted to a sorted unique candidate id set, computed in
// one pass without materializing the full leaf answer. The OIF backend
// implements it — Theorem 1's discard rule is valid for arbitrary
// candidate ids (see core.Index.AppendSubsetWithin).
type subsetWithiner interface {
	AppendSubsetWithin(dst []uint32, qs []Item, cands []uint32) ([]uint32, error)
}

// subsetCursorer is the lazy-decode capability: a cursor over a subset
// answer that decodes postings on demand, so a cursor abandoned after n
// ids never decodes the bytes past them. The inverted-file backend
// implements it; the OIF cannot (its final new-id→original remap and
// sort need the whole answer first).
type subsetCursorer interface {
	SubsetCursor(qs []Item) (*invfile.SubsetCursor, error)
}

// withinerOf unwraps t to its candidate-pushdown capability, or nil.
// The facades (Index, Reader) are unwrapped to the backend they hold
// rather than asserted directly, so a capability is only ever reported
// by the engine that truly implements it.
func withinerOf(t Queryable) subsetWithiner {
	switch v := t.(type) {
	case *Index:
		return withinerOf(v.eng)
	case *Reader:
		if w, ok := v.r.(subsetWithiner); ok {
			return w
		}
	case subsetWithiner:
		return v
	}
	return nil
}

// cursorerOf unwraps t to its lazy-cursor capability, or nil.
func cursorerOf(t Queryable) subsetCursorer {
	switch v := t.(type) {
	case *Index:
		return cursorerOf(v.eng)
	case *Reader:
		if c, ok := v.r.(subsetCursorer); ok {
			return c
		}
	case subsetCursorer:
		return v
	}
	return nil
}

// --- cursors ------------------------------------------------------------

// idCursor streams one node's answer: ascending unique record ids,
// ok=false on exhaustion, sticky errors. invfile.SubsetCursor satisfies
// it natively; everything else adapts via sliceCursor / unionCursor.
type idCursor interface {
	Next() (id uint32, ok bool, err error)
}

// sliceCursor walks a materialized answer.
type sliceCursor struct {
	ids []uint32
	i   int
}

func (c *sliceCursor) Next() (uint32, bool, error) {
	if c.i >= len(c.ids) {
		return 0, false, nil
	}
	id := c.ids[c.i]
	c.i++
	return id, true, nil
}

// unionCursor k-way merges child cursors into one ascending unique
// stream: each Next yields the minimum of the live heads and advances
// every child sitting on it (the dedup). Abandoning the union abandons
// every child — lazy children never decode past the stop point.
type unionCursor struct {
	kids   []idCursor
	head   []uint32
	live   []bool
	primed bool
}

func newUnionCursor(kids []idCursor) *unionCursor {
	return &unionCursor{
		kids: kids,
		head: make([]uint32, len(kids)),
		live: make([]bool, len(kids)),
	}
}

func (c *unionCursor) Next() (uint32, bool, error) {
	if !c.primed {
		c.primed = true
		for i, k := range c.kids {
			id, ok, err := k.Next()
			if err != nil {
				return 0, false, err
			}
			c.head[i], c.live[i] = id, ok
		}
	}
	min, found := uint32(0), false
	for i := range c.kids {
		if c.live[i] && (!found || c.head[i] < min) {
			min, found = c.head[i], true
		}
	}
	if !found {
		return 0, false, nil
	}
	for i, k := range c.kids {
		if c.live[i] && c.head[i] == min {
			id, ok, err := k.Next()
			if err != nil {
				return 0, false, err
			}
			c.head[i], c.live[i] = id, ok
		}
	}
	return min, true, nil
}

// cursor builds the streaming cursor for a plan node: lazy leaf cursors
// where the target offers them, k-way merges over OR children (the
// plan's cost-ascending child order puts the cheapest leg first, so the
// common early-stop case opens the expensive legs but barely reads
// them), and materialized answers everywhere else. Shared CSE subtrees
// materialize so their cached result stays reusable.
func (ev *exprEval) cursor(n *PlanNode) (idCursor, error) {
	if ev.cursors != nil && n.Op == OpLeaf && n.Leaf.Pred == PredicateSubset && !ev.cseShared(n) {
		ev.stats.EvaluatedLeaves++
		ev.stats.StreamedLeaves++
		return ev.cursors.SubsetCursor(n.Leaf.Items)
	}
	if n.Op == OpOr {
		kids := make([]idCursor, len(n.Kids))
		for i, k := range n.Kids {
			c, err := ev.cursor(k)
			if err != nil {
				return nil, err
			}
			kids[i] = c
		}
		return newUnionCursor(kids), nil
	}
	ids, _, err := ev.eval(n)
	if err != nil {
		return nil, err
	}
	// The backing buffer stays out of the free list while the cursor
	// walks it; a limit-bounded evaluation ends soon after.
	return &sliceCursor{ids: ids}, nil
}

// --- cross-query subexpression cache ------------------------------------

// cseState is one micro-batch's common-subexpression cache: plan nodes
// whose canonical form occurs at least twice across the batch map to a
// key, and the first evaluation of each key materializes into cache for
// every later occurrence to reuse. Cached slices are returned un-owned,
// so they are never recycled or mutated while the batch runs.
type cseState struct {
	keys  map[*PlanNode]string
	cache map[string][]uint32

	hits, misses, savedLeaves int
}

// cseShared reports whether n's result is shared across the batch —
// such nodes must materialize (their cached answer feeds several
// consumers), never stream.
func (ev *exprEval) cseShared(n *PlanNode) bool {
	if ev.cse == nil {
		return false
	}
	_, ok := ev.cse.keys[n]
	return ok
}

// planCanon writes n's canonical form: the minimal textual rendering of
// the *planned* tree. Because the planner orders children with a stable
// cost sort against one shared profile, structurally equal expression
// subtrees across a batch produce identical canonical strings.
func planCanon(n *PlanNode, b *strings.Builder) {
	if n.Op == OpLeaf {
		b.WriteString(n.Leaf.String())
		return
	}
	b.WriteString(n.Op.String())
	b.WriteByte('(')
	for i, k := range n.Kids {
		if i > 0 {
			b.WriteByte(',')
		}
		planCanon(k, b)
	}
	b.WriteByte(')')
}

// collectCSE scans the batch's plans and returns the shared-subtree
// cache, or nil when no subtree repeats (the common case costs one tree
// walk and no per-node overhead during evaluation).
func collectCSE(plans []*ExprPlan) *cseState {
	if plans == nil {
		return nil // nothing planned: a batch of plain queries
	}
	count := make(map[string]int)
	keyOf := make(map[*PlanNode]string)
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		var b strings.Builder
		planCanon(n, &b)
		key := b.String()
		keyOf[n] = key
		count[key]++
		for _, k := range n.Kids {
			walk(k)
		}
	}
	for _, p := range plans {
		if p != nil {
			walk(p.Root)
		}
	}
	shared := make(map[*PlanNode]string)
	for n, key := range keyOf {
		if count[key] >= 2 {
			shared[n] = key
		}
	}
	if len(shared) == 0 {
		return nil
	}
	return &cseState{keys: shared, cache: make(map[string][]uint32)}
}
