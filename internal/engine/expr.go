package engine

import (
	"fmt"
	"strings"

	"apuama/internal/sqltypes"
)

// Bound expressions: the binder resolves sql.Expr trees against a scope
// (column positions in the operator's output tuple, correlation
// parameters, aggregate slots) producing bexpr trees that evaluate
// without name lookups.

// evalCtx carries everything expression evaluation needs.
type evalCtx struct {
	ex  *execCtx     // node, snapshot, correlation params
	row sqltypes.Row // current input tuple
}

// bexpr is a bound expression.
type bexpr interface {
	eval(ec *evalCtx) (sqltypes.Value, error)
}

// colExpr reads a position in the current tuple.
type colExpr struct{ pos int }

func (e *colExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return ec.row[e.pos], nil }

// paramExpr reads a correlation parameter supplied by the enclosing query.
type paramExpr struct{ idx int }

func (e *paramExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return ec.ex.params[e.idx], nil }

// litExpr is a constant.
type litExpr struct{ v sqltypes.Value }

func (e *litExpr) eval(*evalCtx) (sqltypes.Value, error) { return e.v, nil }

// binExpr is arithmetic.
type binExpr struct {
	op   byte
	l, r bexpr
}

func (e *binExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	l, err := e.l.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	r, err := e.r.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	return applyArith(e.op, l, r)
}

// applyArith applies an arithmetic operator to two evaluated operands.
func applyArith(op byte, l, r sqltypes.Value) (sqltypes.Value, error) {
	switch op {
	case '+':
		return sqltypes.Add(l, r)
	case '-':
		return sqltypes.Sub(l, r)
	case '*':
		return sqltypes.Mul(l, r)
	case '/':
		return sqltypes.Div(l, r)
	}
	return sqltypes.Null(), fmt.Errorf("unknown arithmetic operator %c", op)
}

// negExpr is unary minus.
type negExpr struct{ e bexpr }

func (e *negExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	return sqltypes.Neg(v)
}

// cmpExpr is a comparison with SQL three-valued logic: NULL operands
// yield NULL.
type cmpExpr struct {
	op   string
	l, r bexpr
}

func (e *cmpExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	l, err := e.l.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	r, err := e.r.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null(), nil
	}
	c := sqltypes.Compare(l, r)
	var ok bool
	switch e.op {
	case "=":
		ok = c == 0
	case "<>":
		ok = c != 0
	case "<":
		ok = c < 0
	case "<=":
		ok = c <= 0
	case ">":
		ok = c > 0
	case ">=":
		ok = c >= 0
	default:
		return sqltypes.Null(), fmt.Errorf("unknown comparison %q", e.op)
	}
	return sqltypes.NewBool(ok), nil
}

// Three-valued AND/OR/NOT (Kleene logic).

// boolOperand classifies a value feeding a boolean connective or a row
// filter under SQL's three-valued logic. Non-boolean kinds are a type
// error rather than a truthiness coercion: a bare string column used as
// a predicate must fail the same way everywhere, or paths that AND
// extra conjuncts onto a query (the SVP range rewrite) would silently
// disagree with the original about which rows qualify.
func boolOperand(v sqltypes.Value) (isTrue, isNull bool, err error) {
	switch v.K {
	case sqltypes.KindBool:
		return v.I != 0, false, nil
	case sqltypes.KindNull:
		return false, true, nil
	default:
		return false, false, fmt.Errorf("boolean condition expected, got %s value %s", v.K, v)
	}
}

type andExpr struct{ l, r bexpr }

func (e *andExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	l, err := e.l.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	lt, ln, err := boolOperand(l)
	if err != nil {
		return sqltypes.Null(), err
	}
	if !lt && !ln {
		return sqltypes.NewBool(false), nil
	}
	r, err := e.r.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	rt, rn, err := boolOperand(r)
	if err != nil {
		return sqltypes.Null(), err
	}
	if !rt && !rn {
		return sqltypes.NewBool(false), nil
	}
	if ln || rn {
		return sqltypes.Null(), nil
	}
	return sqltypes.NewBool(true), nil
}

type orExpr struct{ l, r bexpr }

func (e *orExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	l, err := e.l.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	lt, ln, err := boolOperand(l)
	if err != nil {
		return sqltypes.Null(), err
	}
	if lt {
		return sqltypes.NewBool(true), nil
	}
	r, err := e.r.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	rt, rn, err := boolOperand(r)
	if err != nil {
		return sqltypes.Null(), err
	}
	if rt {
		return sqltypes.NewBool(true), nil
	}
	if ln || rn {
		return sqltypes.Null(), nil
	}
	return sqltypes.NewBool(false), nil
}

type notExpr struct{ e bexpr }

func (e *notExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	t, n, err := boolOperand(v)
	if err != nil {
		return sqltypes.Null(), err
	}
	if n {
		return sqltypes.Null(), nil
	}
	return sqltypes.NewBool(!t), nil
}

// betweenExpr is lo <= e <= hi with 3VL.
type betweenExpr struct {
	e, lo, hi bexpr
	not       bool
}

func (e *betweenExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	lo, err := e.lo.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	hi, err := e.hi.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqltypes.Null(), nil
	}
	in := sqltypes.Compare(v, lo) >= 0 && sqltypes.Compare(v, hi) <= 0
	if e.not {
		in = !in
	}
	return sqltypes.NewBool(in), nil
}

// inListExpr is e IN (v1, v2, ...). NULL semantics: if no match and any
// member was NULL, the result is NULL.
type inListExpr struct {
	e    bexpr
	list []bexpr
	not  bool
}

func (e *inListExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	if v.IsNull() {
		return sqltypes.Null(), nil
	}
	sawNull := false
	found := false
	for _, le := range e.list {
		m, err := le.eval(ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		if m.IsNull() {
			sawNull = true
			continue
		}
		if sqltypes.Compare(v, m) == 0 {
			found = true
			break
		}
	}
	if !found && sawNull {
		return sqltypes.Null(), nil
	}
	if e.not {
		found = !found
	}
	return sqltypes.NewBool(found), nil
}

// likeExpr matches SQL LIKE patterns (% and _ wildcards).
type likeExpr struct {
	e       bexpr
	pattern bexpr
	not     bool
}

func (e *likeExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	p, err := e.pattern.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	if v.IsNull() || p.IsNull() {
		return sqltypes.Null(), nil
	}
	ok := likeMatch(v.S, p.S)
	if e.not {
		ok = !ok
	}
	return sqltypes.NewBool(ok), nil
}

// likeMatch implements %/_ pattern matching with the classic two-pointer
// backtracking algorithm (linear for TPC-H's prefix/infix patterns). A
// '%' in the pattern is always a wildcard, even facing a literal '%' in
// the subject.
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		if pi < len(pattern) && pattern[pi] == '%' {
			star = pi
			match = si
			pi++
		} else if pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]) {
			si++
			pi++
		} else if star != -1 {
			pi = star + 1
			match++
			si = match
		} else {
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// isNullExpr is e IS [NOT] NULL.
type isNullExpr struct {
	e   bexpr
	not bool
}

func (e *isNullExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	isNull := v.IsNull()
	if e.not {
		isNull = !isNull
	}
	return sqltypes.NewBool(isNull), nil
}

// caseExpr evaluates WHEN arms in order.
type caseExpr struct {
	whens []boundWhen
	els   bexpr // may be nil -> NULL
}

type boundWhen struct{ cond, then bexpr }

func (e *caseExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	for _, w := range e.whens {
		c, err := w.cond.eval(ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		ct, _, err := boolOperand(c)
		if err != nil {
			return sqltypes.Null(), err
		}
		if ct {
			return w.then.eval(ec)
		}
	}
	if e.els != nil {
		return e.els.eval(ec)
	}
	return sqltypes.Null(), nil
}

// extractExpr is EXTRACT(field FROM date).
type extractExpr struct {
	field string
	e     bexpr
}

func (e *extractExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	return extractField(e.field, v)
}

// extractField applies EXTRACT(field FROM v) to an evaluated operand.
func extractField(field string, v sqltypes.Value) (sqltypes.Value, error) {
	if v.IsNull() {
		return sqltypes.Null(), nil
	}
	if v.K != sqltypes.KindDate {
		return sqltypes.Null(), fmt.Errorf("extract(%s) requires a date, got %s", field, v.K)
	}
	y, m, d := v.DateYMD()
	switch field {
	case "year":
		return sqltypes.NewInt(int64(y)), nil
	case "month":
		return sqltypes.NewInt(int64(m)), nil
	case "day":
		return sqltypes.NewInt(int64(d)), nil
	}
	return sqltypes.Null(), fmt.Errorf("unknown extract field %q", field)
}

// aggRefExpr reads an aggregation output slot (group keys first, then
// aggregate values); it only appears above an aggregate operator.
type aggRefExpr struct{ pos int }

func (e *aggRefExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return ec.row[e.pos], nil }

// existsExpr runs a correlated or uncorrelated sub-plan and reports
// whether it yields at least one row.
type existsExpr struct {
	sub *subplan
	not bool
}

func (e *existsExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	found, err := e.sub.hasRow(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	if e.not {
		found = !found
	}
	return sqltypes.NewBool(found), nil
}

// inSubExpr is e IN (SELECT ...). Uncorrelated sub-plans are materialized
// once per query execution.
type inSubExpr struct {
	e   bexpr
	sub *subplan
	not bool
}

func (e *inSubExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	if v.IsNull() {
		return sqltypes.Null(), nil
	}
	found, sawNull, err := e.sub.contains(ec, v)
	if err != nil {
		return sqltypes.Null(), err
	}
	if !found && sawNull {
		return sqltypes.Null(), nil
	}
	if e.not {
		found = !found
	}
	return sqltypes.NewBool(found), nil
}

// scalarSubExpr is (SELECT single-value ...).
type scalarSubExpr struct {
	sub *subplan
}

func (e *scalarSubExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	return e.sub.scalar(ec)
}

// exprString is a debugging aid used in error messages.
func exprString(e bexpr) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", e), "*engine.")
}
