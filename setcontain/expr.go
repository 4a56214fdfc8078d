package setcontain

import (
	"fmt"
	"strings"
)

// Expr is a boolean predicate tree over containment queries: AND/OR/NOT
// nodes whose leaves are plain Queries. It is the full query surface —
// a single Query is the one-leaf degenerate case (ExprOf), so every
// entry point that accepts an Expr subsumes the Query forms.
//
// The textual form round-trips through ParseExpr and Expr.String and is
// the wire vocabulary of the serve package's ?q= parameter:
//
//	subset{3 17} and not superset{29}
//	(subset{1} or equality{2 3}) and subset{4}
//
// Semantics are set algebra over answer id sets: AND intersects, OR
// unites, and NOT complements against the universe of live record ids
// (the answer of subset{} — the empty query matches every record, with
// tombstoned ids already masked). Evaluation orders are planned
// cost-based by PlanExpr / Store.ExecExprAppend; Expr.Eval is the naive
// left-to-right reference.
type Expr struct {
	// Op is the node type; the zero value (OpLeaf) makes the zero Expr
	// an (invalid) empty leaf — build expressions with the constructors
	// or ParseExpr.
	Op ExprOp
	// Leaf is the containment query of an OpLeaf node.
	Leaf Query
	// Kids are the children: at least two for OpAnd/OpOr (the
	// constructors flatten nested same-op children), exactly one for
	// OpNot, none for OpLeaf.
	Kids []*Expr
}

// ExprOp is an expression node type.
type ExprOp uint8

// The expression node types.
const (
	// OpLeaf is a containment-query leaf.
	OpLeaf ExprOp = iota
	// OpAnd intersects its children's answers.
	OpAnd
	// OpOr unites its children's answers.
	OpOr
	// OpNot complements its child's answer against the live-id universe.
	OpNot
)

// String names the operator as the grammar spells it.
func (op ExprOp) String() string {
	switch op {
	case OpLeaf:
		return "leaf"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpNot:
		return "not"
	default:
		return fmt.Sprintf("ExprOp(%d)", uint8(op))
	}
}

// ExprOf wraps a Query as a one-leaf expression — the degenerate case
// that keeps every existing single-predicate caller expressible on the
// expression surface.
func ExprOf(q Query) *Expr { return &Expr{Op: OpLeaf, Leaf: q} }

// And returns the conjunction of the given expressions. Nested And
// children are flattened and a single child is returned as-is, so the
// constructors build the same canonical shape the parser produces.
func And(kids ...*Expr) *Expr { return nary(OpAnd, kids) }

// Or returns the disjunction of the given expressions, flattened like And.
func Or(kids ...*Expr) *Expr { return nary(OpOr, kids) }

// Not returns the complement of e against the universe of live records.
func Not(e *Expr) *Expr { return &Expr{Op: OpNot, Kids: []*Expr{e}} }

func nary(op ExprOp, kids []*Expr) *Expr {
	flat := make([]*Expr, 0, len(kids))
	for _, k := range kids {
		if k != nil && k.Op == op {
			flat = append(flat, k.Kids...)
			continue
		}
		flat = append(flat, k)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Expr{Op: op, Kids: flat}
}

// AsQuery returns the leaf's query when the expression is the one-leaf
// degenerate case; callers use it to route plain queries through the
// original single-predicate paths (the serve package's batcher does).
func (e *Expr) AsQuery() (Query, bool) {
	if e != nil && e.Op == OpLeaf {
		return e.Leaf, true
	}
	return Query{}, false
}

// Leaves returns the number of containment leaves in the tree.
func (e *Expr) Leaves() int {
	if e == nil {
		return 0
	}
	if e.Op == OpLeaf {
		return 1
	}
	n := 0
	for _, k := range e.Kids {
		n += k.Leaves()
	}
	return n
}

// validate checks structural invariants: known ops and predicates,
// correct child counts. Every evaluation entry point calls it once at
// the root, so malformed hand-built trees fail fast with a clear error
// instead of misbehaving mid-evaluation.
func (e *Expr) validate() error {
	if e == nil {
		return fmt.Errorf("setcontain: nil expression")
	}
	switch e.Op {
	case OpLeaf:
		if len(e.Kids) != 0 {
			return fmt.Errorf("setcontain: leaf with %d children", len(e.Kids))
		}
		if !e.Leaf.Pred.known() {
			return ErrUnknownPredicate
		}
		return nil
	case OpNot:
		if len(e.Kids) != 1 {
			return fmt.Errorf("setcontain: not with %d children", len(e.Kids))
		}
		return e.Kids[0].validate()
	case OpAnd, OpOr:
		if len(e.Kids) < 2 {
			return fmt.Errorf("setcontain: %s with %d children", e.Op, len(e.Kids))
		}
		for _, k := range e.Kids {
			if err := k.validate(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("setcontain: unknown expression op %s", e.Op)
	}
}

// Operator binding strength, loosest first: or < and < not < leaf.
// String parenthesizes a child exactly when it binds looser than its
// context requires, so the output is minimal and reparses to the same
// tree.
func (e *Expr) prec() int {
	switch e.Op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpNot:
		return 3
	default:
		return 4
	}
}

// String renders the expression in the grammar ParseExpr accepts, with
// minimal parentheses; ParseExpr(e.String()) reproduces the tree.
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b)
	return b.String()
}

func (e *Expr) write(b *strings.Builder) {
	switch e.Op {
	case OpLeaf:
		b.WriteString(e.Leaf.String())
	case OpNot:
		b.WriteString("not ")
		e.writeChild(b, e.Kids[0])
	case OpAnd:
		for i, k := range e.Kids {
			if i > 0 {
				b.WriteString(" and ")
			}
			e.writeChild(b, k)
		}
	case OpOr:
		for i, k := range e.Kids {
			if i > 0 {
				b.WriteString(" or ")
			}
			e.writeChild(b, k)
		}
	default:
		fmt.Fprintf(b, "<%s>", e.Op)
	}
}

func (e *Expr) writeChild(b *strings.Builder, k *Expr) {
	if k.prec() <= e.prec() && k.Op != e.Op {
		b.WriteByte('(')
		k.write(b)
		b.WriteByte(')')
		return
	}
	// Same-op nesting only arises in hand-built trees (the constructors
	// and the parser flatten); parenthesize it too so the string
	// round-trips to the flattened canonical form without ambiguity.
	if k.Op == e.Op && k.Op != OpNot {
		b.WriteByte('(')
		k.write(b)
		b.WriteByte(')')
		return
	}
	k.write(b)
}

// ParseError reports where parsing a query or expression failed: the
// byte offset into the input at which the scanner or parser stopped,
// plus a message describing what it wanted. ParseQuery and ParseExpr
// return it for every syntax failure, so callers — the serve package's
// 400 bodies in particular — can point clients at the exact position.
type ParseError struct {
	// Input is the full string being parsed.
	Input string
	// Offset is the byte offset of the failure in Input.
	Offset int
	// Msg describes the failure.
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("setcontain: query %q at offset %d: %s", e.Input, e.Offset, e.Msg)
}

// The expression grammar, EBNF (tokens separated by optional spaces;
// keywords and predicate names are case-insensitive):
//
//	expr      = or .
//	or        = and { "or" and } .
//	and       = unary { "and" unary } .
//	unary     = "not" unary | primary .
//	primary   = leaf | "(" expr ")" .
//	leaf      = predicate "{" { uint32 } "}" .
//	predicate = "subset" | "equality" | "superset" .

// ParseExpr parses the boolean expression grammar over containment
// leaves — "subset{3 17} and not superset{29}", parenthesized and
// nested arbitrarily — into an Expr. The leaf form is exactly
// ParseQuery's; "and" binds tighter than "or", "not" tighter than both,
// and parentheses group. The textual form round-trips: ParseExpr
// reproduces the tree Expr.String printed. Errors are *ParseError
// carrying the byte offset of the failure.
func ParseExpr(s string) (*Expr, error) {
	p := &exprParser{in: s}
	p.next()
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf(p.tok.off, "unexpected %s after expression", p.tok.describe())
	}
	return e, nil
}

// ParseQuery parses the textual form produced by Query.String —
// "subset{3 17 29}" — back into a Query, so the string form round-trips
// and can serve as a compact wire format. The predicate name is matched
// like ParsePredicate (case-insensitively); items are decimal uint32s
// separated by spaces, and "{}" denotes the empty query. Surrounding
// whitespace is ignored; anything after the closing brace is an error.
// Errors are *ParseError carrying the byte offset of the failure.
// ParseQuery accepts exactly the leaf rule of the expression grammar;
// use ParseExpr for full boolean expressions.
func ParseQuery(s string) (Query, error) {
	p := &exprParser{in: s}
	p.next()
	q, err := p.parseLeaf()
	if err != nil {
		return Query{}, err
	}
	if p.tok.kind != tokEOF {
		return Query{}, p.errf(p.tok.off, "unexpected %s after query", p.tok.describe())
	}
	return q, nil
}

// --- scanner / parser ---------------------------------------------------

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
	off  int
}

func (t token) describe() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

type exprParser struct {
	in  string
	pos int
	tok token
}

func (p *exprParser) errf(off int, format string, args ...any) error {
	return &ParseError{Input: p.in, Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// next advances to the following token; scan failures surface at the
// parse step that consumes the bad token.
func (p *exprParser) next() {
	for p.pos < len(p.in) && isSpace(p.in[p.pos]) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.in) {
		p.tok = token{kind: tokEOF, off: start}
		return
	}
	c := p.in[p.pos]
	switch {
	case c == '{':
		p.pos++
		p.tok = token{kind: tokLBrace, text: "{", off: start}
	case c == '}':
		p.pos++
		p.tok = token{kind: tokRBrace, text: "}", off: start}
	case c == '(':
		p.pos++
		p.tok = token{kind: tokLParen, text: "(", off: start}
	case c == ')':
		p.pos++
		p.tok = token{kind: tokRParen, text: ")", off: start}
	case isLetter(c):
		for p.pos < len(p.in) && isLetter(p.in[p.pos]) {
			p.pos++
		}
		p.tok = token{kind: tokIdent, text: p.in[start:p.pos], off: start}
	case c >= '0' && c <= '9':
		for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
			p.pos++
		}
		p.tok = token{kind: tokNumber, text: p.in[start:p.pos], off: start}
	default:
		// Represent the bad byte as a one-char token; the consuming rule
		// reports it with its position.
		p.pos++
		p.tok = token{kind: tokIdent, text: p.in[start:p.pos], off: start}
	}
}

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// keyword reports whether the current token is the given keyword,
// case-insensitively.
func (p *exprParser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *exprParser) parseOr() (*Expr, error) {
	kids := make([]*Expr, 0, 2)
	for {
		e, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, e)
		if !p.keyword("or") {
			break
		}
		p.next()
	}
	return Or(kids...), nil
}

func (p *exprParser) parseAnd() (*Expr, error) {
	kids := make([]*Expr, 0, 2)
	for {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, e)
		if !p.keyword("and") {
			break
		}
		p.next()
	}
	return And(kids...), nil
}

func (p *exprParser) parseUnary() (*Expr, error) {
	if p.keyword("not") {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(e), nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (*Expr, error) {
	if p.tok.kind == tokLParen {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf(p.tok.off, "expected ')', found %s", p.tok.describe())
		}
		p.next()
		return e, nil
	}
	q, err := p.parseLeaf()
	if err != nil {
		return nil, err
	}
	return ExprOf(q), nil
}

// parseLeaf parses predicate{items...} — the leaf rule shared by
// ParseQuery and ParseExpr.
func (p *exprParser) parseLeaf() (Query, error) {
	if p.tok.kind != tokIdent {
		return Query{}, p.errf(p.tok.off, "expected a predicate (subset, equality, or superset), found %s", p.tok.describe())
	}
	pred, err := ParsePredicate(p.tok.text)
	if err != nil {
		return Query{}, p.errf(p.tok.off, "unknown predicate %q (want subset, equality, or superset)", p.tok.text)
	}
	p.next()
	if p.tok.kind != tokLBrace {
		return Query{}, p.errf(p.tok.off, "expected '{' after %s, found %s", pred, p.tok.describe())
	}
	p.next()
	var items []Item
	for p.tok.kind == tokNumber {
		var v uint64
		for i := 0; i < len(p.tok.text); i++ {
			v = v*10 + uint64(p.tok.text[i]-'0')
			if v > 1<<32-1 {
				return Query{}, p.errf(p.tok.off, "item %q overflows uint32", p.tok.text)
			}
		}
		items = append(items, Item(v))
		p.next()
	}
	if p.tok.kind != tokRBrace {
		return Query{}, p.errf(p.tok.off, "expected an item or '}', found %s", p.tok.describe())
	}
	p.next()
	return Query{Pred: pred, Items: items}, nil
}
