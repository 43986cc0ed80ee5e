package engine

import (
	"strings"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// Compiled expression kernels. The binder produces bexpr trees, the
// analyzable IR that the parallel-safety walker, the zone-map collector
// and EXPLAIN inspect. compile turns each tree, once per plan, into a
// kernel: the executable form every operator calls per row. Kernels are
// type-specialized where the common TPC-H shapes allow it (column versus
// constant comparisons, flat AND/OR chains, float/int arithmetic) and
// fall back to the tree's eval for every other form, so a kernel always
// computes exactly what the tree computes, errors included.
//
// Kernels capture only immutable data (positions, folded constants,
// child kernels); all per-row state lives in the caller's evalCtx, so
// one kernel is shared by every morsel worker of a parallel fragment.

// tri is a three-valued-logic truth value. triFalse and triTrue are 0
// and 1 so a comparison mask bit converts to a tri directly.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
)

// triOf classifies a value under three-valued logic with boolOperand's
// type rule: non-boolean, non-NULL values are an error.
func triOf(v sqltypes.Value) (tri, error) {
	t, n, err := boolOperand(v)
	switch {
	case err != nil:
		return triNull, err
	case n:
		return triNull, nil
	case t:
		return triTrue, nil
	}
	return triFalse, nil
}

func (t tri) value() sqltypes.Value {
	if t == triNull {
		return sqltypes.Null()
	}
	return sqltypes.NewBool(t == triTrue)
}

// predFn is a predicate kernel body.
type predFn func(ec *evalCtx) (tri, error)

// valueFn is a value kernel body.
type valueFn func(ec *evalCtx) (sqltypes.Value, error)

// kernelForm selects how kernel.value produces its result: column,
// parameter and literal reads are answered by value's own switch,
// without a call through the bexpr interface or a closure.
type kernelForm uint8

const (
	formFn kernelForm = iota
	formCol
	formParam
	formLit
	formPred
)

// kernel is the compiled form of one bound expression.
type kernel struct {
	src  bexpr // the tree this kernel was compiled from
	form kernelForm
	pos  int            // formCol/formParam: tuple or parameter position
	lit  sqltypes.Value // formLit
	fn   valueFn        // formFn
	pred predFn         // set for boolean forms (formPred)
}

// tree returns the analyzable bound expression behind k (nil for nil).
func (k *kernel) tree() bexpr {
	if k == nil {
		return nil
	}
	return k.src
}

// value evaluates the kernel to a value.
func (k *kernel) value(ec *evalCtx) (sqltypes.Value, error) {
	switch k.form {
	case formCol:
		return ec.row[k.pos], nil
	case formLit:
		return k.lit, nil
	case formParam:
		return ec.ex.params[k.pos], nil
	case formPred:
		t, err := k.pred(ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		return t.value(), nil
	}
	return k.fn(ec)
}

// test evaluates the kernel as a boolean condition.
func (k *kernel) test(ec *evalCtx) (tri, error) {
	if k.pred != nil {
		return k.pred(ec)
	}
	v, err := k.value(ec)
	if err != nil {
		return triNull, err
	}
	return triOf(v)
}

// keep reports whether a filter kernel keeps the current row: only TRUE
// keeps it (NULL means "not true"). A nil kernel keeps every row.
func (k *kernel) keep(ec *evalCtx) (bool, error) {
	if k == nil {
		return true, nil
	}
	t, err := k.test(ec)
	return t == triTrue, err
}

// compile builds the kernel for a bound expression; nil compiles to nil.
func compile(e bexpr) *kernel {
	if e == nil {
		return nil
	}
	k := &kernel{src: e}
	switch x := e.(type) {
	case *colExpr:
		k.form, k.pos = formCol, x.pos
	case *aggRefExpr:
		k.form, k.pos = formCol, x.pos
	case *paramExpr:
		k.form, k.pos = formParam, x.idx
	case *litExpr:
		k.form, k.lit = formLit, x.v
	case *cmpExpr, *andExpr, *orExpr, *notExpr, *betweenExpr, *inListExpr,
		*likeExpr, *isNullExpr, *existsExpr, *inSubExpr:
		k.form, k.pred = formPred, compilePred(e)
	case *binExpr:
		k.fn = compileArith(x)
	case *negExpr:
		k.fn = compileNeg(x)
	case *extractExpr:
		k.fn = compileExtract(x)
	case *caseExpr:
		k.fn = compileCase(x)
	default:
		k.fn = e.eval
	}
	return k
}

// compileAll compiles a list of bound expressions.
func compileAll(es []bexpr) []*kernel {
	out := make([]*kernel, len(es))
	for i, e := range es {
		out[i] = compile(e)
	}
	return out
}

// --- predicate kernels ---

// compilePred builds the predicate body of a boolean form.
func compilePred(e bexpr) predFn {
	switch x := e.(type) {
	case *andExpr:
		return compileAnd(flatten(e, true))
	case *orExpr:
		return compileOr(flatten(e, false))
	case *notExpr:
		inner := predOf(x.e)
		return func(ec *evalCtx) (tri, error) {
			t, err := inner(ec)
			if err != nil || t == triNull {
				return triNull, err
			}
			return triTrue - t, nil
		}
	case *cmpExpr:
		return compileCmp(x)
	case *betweenExpr:
		return compileBetween(x)
	case *inListExpr:
		return compileInList(x)
	case *likeExpr:
		return compileLike(x)
	case *isNullExpr:
		v := compile(x.e)
		not := x.not
		return func(ec *evalCtx) (tri, error) {
			val, err := v.value(ec)
			if err != nil {
				return triNull, err
			}
			return truth(val.IsNull() != not), nil
		}
	}
	return treePred(e)
}

// treePred is the generic fallback: the tree's own eval, classified
// under three-valued logic.
func treePred(e bexpr) predFn {
	return func(ec *evalCtx) (tri, error) {
		v, err := e.eval(ec)
		if err != nil {
			return triNull, err
		}
		return triOf(v)
	}
}

// predOf compiles any bound expression used as a boolean operand.
func predOf(e bexpr) predFn {
	k := compile(e)
	if k.pred != nil {
		return k.pred
	}
	return k.test
}

// flatten lists the operands of a nested AND (and=true) or OR chain in
// evaluation order. Both connectives short-circuit left to right, so any
// nesting of one connective evaluates its leaves in this order.
func flatten(e bexpr, and bool) []bexpr {
	if and {
		if x, ok := e.(*andExpr); ok {
			return append(flatten(x.l, true), flatten(x.r, true)...)
		}
	} else if x, ok := e.(*orExpr); ok {
		return append(flatten(x.l, false), flatten(x.r, false)...)
	}
	return []bexpr{e}
}

// compileAnd evaluates conjuncts in order, stopping at the first FALSE;
// a NULL conjunct makes a non-FALSE result NULL (Kleene AND).
func compileAnd(leaves []bexpr) predFn {
	ps := make([]predFn, len(leaves))
	for i, l := range leaves {
		ps[i] = predOf(l)
	}
	return func(ec *evalCtx) (tri, error) {
		res := triTrue
		for _, p := range ps {
			t, err := p(ec)
			if err != nil {
				return triNull, err
			}
			switch t {
			case triFalse:
				return triFalse, nil
			case triNull:
				res = triNull
			}
		}
		return res, nil
	}
}

// compileOr evaluates disjuncts in order, stopping at the first TRUE.
func compileOr(leaves []bexpr) predFn {
	ps := make([]predFn, len(leaves))
	for i, l := range leaves {
		ps[i] = predOf(l)
	}
	return func(ec *evalCtx) (tri, error) {
		res := triFalse
		for _, p := range ps {
			t, err := p(ec)
			if err != nil {
				return triNull, err
			}
			switch t {
			case triTrue:
				return triTrue, nil
			case triNull:
				res = triNull
			}
		}
		return res, nil
	}
}

// cmpMasks encodes each comparison operator as the set of Compare
// outcomes that satisfy it: bit 0 for c < 0, bit 1 for c == 0, bit 2
// for c > 0.
var cmpMasks = map[string]uint8{
	"=": 0b010, "<>": 0b101, "<": 0b001, "<=": 0b011, ">": 0b100, ">=": 0b110,
}

// holds reports whether Compare outcome c satisfies the operator mask.
func holds(mask uint8, c int) tri { return tri(mask >> uint(c+1) & 1) }

func cmp3[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// constCmp compares row values against one non-NULL constant exactly as
// sqltypes.Compare(v, c) does, with the same-kind and float cases
// unboxed. NaN compares equal to everything, as in Compare.
type constCmp struct {
	c       sqltypes.Value
	cf      float64       // c.AsFloat(), the float side of a mixed comparison
	numeric bool          // c ranks numeric (not a string)
	intKind sqltypes.Kind // c.K for an int or date constant (same-kind values compare by I), else KindNull
}

func newConstCmp(c sqltypes.Value) constCmp {
	k := constCmp{c: c, cf: c.AsFloat(), numeric: c.K != sqltypes.KindString}
	if c.K == sqltypes.KindInt || c.K == sqltypes.KindDate {
		k.intKind = c.K
	}
	return k
}

// cmp returns Compare(*v, c) for a non-NULL v.
func (k *constCmp) cmp(v *sqltypes.Value) int {
	if v.K == sqltypes.KindFloat && k.numeric {
		return cmp3(v.F, k.cf)
	}
	if v.K == k.intKind {
		return cmp3(v.I, k.c.I)
	}
	return k.cmpSlow(v)
}

func (k *constCmp) cmpSlow(v *sqltypes.Value) int {
	if v.K == sqltypes.KindString && !k.numeric {
		return strings.Compare(v.S, k.c.S)
	}
	return sqltypes.Compare(*v, k.c)
}

// compareValues is sqltypes.Compare for two non-NULL values with the
// same-kind cases unboxed.
func compareValues(a, b *sqltypes.Value) int {
	if a.K == b.K {
		switch a.K {
		case sqltypes.KindInt, sqltypes.KindDate:
			return cmp3(a.I, b.I)
		case sqltypes.KindFloat:
			return cmp3(a.F, b.F)
		case sqltypes.KindString:
			return strings.Compare(a.S, b.S)
		}
	}
	return sqltypes.Compare(*a, *b)
}

// constOf reports the value of a literal operand.
func constOf(e bexpr) (sqltypes.Value, bool) {
	if l, ok := e.(*litExpr); ok {
		return l.v, true
	}
	return sqltypes.Null(), false
}

// compileCmp specializes column-versus-literal comparisons (either
// orientation, flipping the operator) and column-versus-column ones, and
// evaluates everything else through value kernels with an unboxed
// compare.
func compileCmp(x *cmpExpr) predFn {
	mask, ok := cmpMasks[x.op]
	if !ok {
		return treePred(x)
	}
	if pos, c, cmask, ok := colVsConst(x); ok {
		if c.IsNull() {
			return func(*evalCtx) (tri, error) { return triNull, nil }
		}
		k := newConstCmp(c)
		return func(ec *evalCtx) (tri, error) {
			v := &ec.row[pos]
			if v.K == sqltypes.KindNull {
				return triNull, nil
			}
			return holds(cmask, k.cmp(v)), nil
		}
	}
	lc, lCol := x.l.(*colExpr)
	rc, rCol := x.r.(*colExpr)
	if lCol && rCol {
		lp, rp := lc.pos, rc.pos
		return func(ec *evalCtx) (tri, error) {
			a, b := &ec.row[lp], &ec.row[rp]
			if a.K == sqltypes.KindNull || b.K == sqltypes.KindNull {
				return triNull, nil
			}
			return holds(mask, compareValues(a, b)), nil
		}
	}
	l, r := compile(x.l), compile(x.r)
	return func(ec *evalCtx) (tri, error) {
		lv, err := l.value(ec)
		if err != nil {
			return triNull, err
		}
		rv, err := r.value(ec)
		if err != nil {
			return triNull, err
		}
		if lv.IsNull() || rv.IsNull() {
			return triNull, nil
		}
		return holds(mask, compareValues(&lv, &rv)), nil
	}
}

// colVsConst matches `column op literal` or `literal op column`,
// returning the column position, the literal and the operator mask as
// seen from the column side. Neither operand can fail to evaluate, so
// swapping them keeps the tree's results and errors.
func colVsConst(x *cmpExpr) (pos int, c sqltypes.Value, mask uint8, ok bool) {
	if col, isCol := x.l.(*colExpr); isCol {
		if c, isConst := constOf(x.r); isConst {
			return col.pos, c, cmpMasks[x.op], true
		}
	}
	if col, isCol := x.r.(*colExpr); isCol {
		if c, isConst := constOf(x.l); isConst {
			return col.pos, c, cmpMasks[sql.FlipCompare(x.op)], true
		}
	}
	return 0, sqltypes.Null(), 0, false
}

// compileBetween specializes BETWEEN with literal bounds.
func compileBetween(x *betweenExpr) predFn {
	lo, loConst := constOf(x.lo)
	hi, hiConst := constOf(x.hi)
	if !loConst || !hiConst {
		return treePred(x)
	}
	v := compile(x.e)
	if lo.IsNull() || hi.IsNull() {
		return func(ec *evalCtx) (tri, error) {
			_, err := v.value(ec)
			return triNull, err
		}
	}
	lk, hk := newConstCmp(lo), newConstCmp(hi)
	not := x.not
	return func(ec *evalCtx) (tri, error) {
		val, err := v.value(ec)
		if err != nil || val.IsNull() {
			return triNull, err
		}
		return truth((lk.cmp(&val) >= 0 && hk.cmp(&val) <= 0) != not), nil
	}
}

// compileInList specializes IN over a literal list: NULL members reduce
// to one flag (they matter only when nothing matched).
func compileInList(x *inListExpr) predFn {
	var members []constCmp
	hasNull := false
	for _, le := range x.list {
		c, ok := constOf(le)
		if !ok {
			return treePred(x)
		}
		if c.IsNull() {
			hasNull = true
			continue
		}
		members = append(members, newConstCmp(c))
	}
	v := compile(x.e)
	not := x.not
	return func(ec *evalCtx) (tri, error) {
		val, err := v.value(ec)
		if err != nil || val.IsNull() {
			return triNull, err
		}
		for i := range members {
			if members[i].cmp(&val) == 0 {
				return truth(!not), nil
			}
		}
		if hasNull {
			return triNull, nil
		}
		return truth(not), nil
	}
}

// compileLike specializes LIKE with a literal pattern into a prefix,
// suffix, infix or exact match when the pattern has that shape.
func compileLike(x *likeExpr) predFn {
	p, isConst := constOf(x.pattern)
	if !isConst {
		return treePred(x)
	}
	v := compile(x.e)
	if p.IsNull() {
		return func(ec *evalCtx) (tri, error) {
			_, err := v.value(ec)
			return triNull, err
		}
	}
	match := likeMatcher(p.S)
	not := x.not
	return func(ec *evalCtx) (tri, error) {
		val, err := v.value(ec)
		if err != nil || val.IsNull() {
			return triNull, err
		}
		return truth(match(val.S) != not), nil
	}
}

// truth converts a two-valued result.
func truth(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// likeMatcher returns a matcher equivalent to likeMatch(s, pattern).
func likeMatcher(pattern string) func(string) bool {
	if !strings.Contains(pattern, "_") {
		body := strings.Trim(pattern, "%")
		if !strings.Contains(body, "%") {
			lead := strings.HasPrefix(pattern, "%")
			trail := strings.HasSuffix(pattern, "%")
			switch {
			case body == "" && (lead || trail):
				return func(string) bool { return true }
			case lead && trail:
				return func(s string) bool { return strings.Contains(s, body) }
			case lead:
				return func(s string) bool { return strings.HasSuffix(s, body) }
			case trail:
				return func(s string) bool { return strings.HasPrefix(s, body) }
			default:
				return func(s string) bool { return s == body }
			}
		}
	}
	return func(s string) bool { return likeMatch(s, pattern) }
}

// --- value kernels ---

// compileArith specializes arithmetic over ints and floats; every other
// kind combination (dates, intervals, NULLs, division by zero, type
// errors) goes through applyArith, which is what the tree evaluates.
func compileArith(x *binExpr) valueFn {
	switch x.op {
	case '+', '-', '*', '/':
	default:
		return x.eval
	}
	op := x.op
	l, r := compile(x.l), compile(x.r)
	return func(ec *evalCtx) (sqltypes.Value, error) {
		lv, err := l.value(ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		rv, err := r.value(ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		var a, b float64
		switch {
		case lv.K == sqltypes.KindFloat && rv.K == sqltypes.KindFloat:
			a, b = lv.F, rv.F
		case lv.K == sqltypes.KindFloat && rv.K == sqltypes.KindInt:
			a, b = lv.F, float64(rv.I)
		case lv.K == sqltypes.KindInt && rv.K == sqltypes.KindFloat:
			a, b = float64(lv.I), rv.F
		case lv.K == sqltypes.KindInt && rv.K == sqltypes.KindInt && op != '/':
			switch op {
			case '+':
				return sqltypes.NewInt(lv.I + rv.I), nil
			case '-':
				return sqltypes.NewInt(lv.I - rv.I), nil
			}
			return sqltypes.NewInt(lv.I * rv.I), nil
		default:
			return applyArith(op, lv, rv)
		}
		// Explicit float64 conversions keep each operation individually
		// rounded (no fused multiply-add), as in sqltypes' arithmetic.
		switch op {
		case '+':
			return sqltypes.NewFloat(float64(a + b)), nil
		case '-':
			return sqltypes.NewFloat(float64(a - b)), nil
		case '*':
			return sqltypes.NewFloat(float64(a * b)), nil
		}
		if b == 0 {
			return applyArith(op, lv, rv)
		}
		return sqltypes.NewFloat(float64(a / b)), nil
	}
}

func compileNeg(x *negExpr) valueFn {
	inner := compile(x.e)
	return func(ec *evalCtx) (sqltypes.Value, error) {
		v, err := inner.value(ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		switch v.K {
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(-v.F), nil
		case sqltypes.KindInt:
			return sqltypes.NewInt(-v.I), nil
		}
		return sqltypes.Neg(v)
	}
}

func compileExtract(x *extractExpr) valueFn {
	inner := compile(x.e)
	field := x.field
	return func(ec *evalCtx) (sqltypes.Value, error) {
		v, err := inner.value(ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		return extractField(field, v)
	}
}

func compileCase(x *caseExpr) valueFn {
	conds := make([]predFn, len(x.whens))
	thens := make([]*kernel, len(x.whens))
	for i, w := range x.whens {
		conds[i] = predOf(w.cond)
		thens[i] = compile(w.then)
	}
	els := compile(x.els)
	return func(ec *evalCtx) (sqltypes.Value, error) {
		for i, c := range conds {
			t, err := c(ec)
			if err != nil {
				return sqltypes.Null(), err
			}
			if t == triTrue {
				return thens[i].value(ec)
			}
		}
		if els != nil {
			return els.value(ec)
		}
		return sqltypes.Null(), nil
	}
}
