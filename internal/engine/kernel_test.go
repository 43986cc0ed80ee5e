package engine

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// The differential oracle for compiled kernels: the bound tree's eval is
// the reference, and every kernel must reproduce it bit for bit —
// value, kind, float bits and error — for every row.

// exprGen builds random bound trees over the fuzz column layout. Each node
// is built twice: raw (exactly as written) and folded (literal-only
// arithmetic, negation and EXTRACT folded as the binder folds them), so
// one comparison covers both compilation and constant folding.
type exprGen struct {
	r *rand.Rand
}

// The fuzz column layout: two ints, two floats, a date, a string, a bool.
const (
	fcInt, fcInt2, fcFloat, fcFloat2, fcDate, fcStr, fcBool = 0, 1, 2, 3, 4, 5, 6
	fuzzCols                                                = 7
)

var fuzzStrings = []string{"", "A", "AB", "ABC", "BA", "PROMO X", "X PROMO", "a%b", "a_b", "%", "_"}

var fuzzPatterns = []string{"%", "%%", "", "A%", "%A", "%B%", "A", "AB", "_", "A_", "%_%", "A%B", "%PROMO%", "PROMO%", "a\\%b", "%%A%%"}

// value draws a datum. Column-typed draws keep to the column's kind most
// of the time but mix in NULLs, NaN, ±0, infinities and the other
// numeric kind (ints in float columns and vice versa). Domains are small
// so equal operands, zero divisors and boundary hits are common.
func (g *exprGen) value(col int) sqltypes.Value {
	r := g.r
	if r.Intn(8) == 0 {
		return sqltypes.Null()
	}
	switch col {
	case fcInt, fcInt2:
		if r.Intn(6) == 0 {
			return g.float()
		}
		return sqltypes.NewInt(int64(r.Intn(7) - 3))
	case fcFloat, fcFloat2:
		if r.Intn(6) == 0 {
			return sqltypes.NewInt(int64(r.Intn(7) - 3))
		}
		return g.float()
	case fcDate:
		return sqltypes.NewDate(int64(8000 + r.Intn(60)))
	case fcStr:
		return sqltypes.NewString(fuzzStrings[r.Intn(len(fuzzStrings))])
	case fcBool:
		return sqltypes.NewBool(r.Intn(2) == 0)
	}
	return sqltypes.Null()
}

func (g *exprGen) float() sqltypes.Value {
	switch g.r.Intn(10) {
	case 0:
		return sqltypes.NewFloat(math.NaN())
	case 1:
		return sqltypes.NewFloat(math.Copysign(0, -1))
	case 2:
		return sqltypes.NewFloat(0)
	case 3:
		return sqltypes.NewFloat(math.Inf(1 - 2*g.r.Intn(2)))
	case 4:
		return sqltypes.NewFloat(float64(g.r.Intn(7) - 3))
	}
	return sqltypes.NewFloat(float64(g.r.Intn(13)-6) / 4)
}

// literal draws a constant of any kind, intervals included.
func (g *exprGen) literal() sqltypes.Value {
	if g.r.Intn(10) == 0 {
		units := []string{"day", "month", "year", "week"}
		return sqltypes.NewInterval(int64(g.r.Intn(7)-3), units[g.r.Intn(len(units))])
	}
	return g.value(g.r.Intn(fuzzCols))
}

func (g *exprGen) row() sqltypes.Row {
	row := make(sqltypes.Row, fuzzCols)
	for c := range row {
		row[c] = g.value(c)
	}
	return row
}

// leaf returns a column, literal or parameter reference.
func (g *exprGen) leaf() (raw, folded bexpr) {
	switch g.r.Intn(7) {
	case 0, 1, 2:
		e := &colExpr{pos: g.r.Intn(fuzzCols)}
		return e, e
	case 3:
		e := &paramExpr{idx: g.r.Intn(2)}
		return e, e
	}
	e := &litExpr{v: g.literal()}
	return e, e
}

// val returns a value-typed tree (possibly boolean).
func (g *exprGen) val(depth int) (raw, folded bexpr) {
	if depth <= 0 {
		return g.leaf()
	}
	switch g.r.Intn(9) {
	case 0, 1:
		ops := []byte{'+', '-', '*', '/', '+', '-', '*', '/', '%'}
		op := ops[g.r.Intn(len(ops))]
		lr, lf := g.val(depth - 1)
		rr, rf := g.val(depth - 1)
		return &binExpr{op: op, l: lr, r: rr}, fold(&binExpr{op: op, l: lf, r: rf})
	case 2:
		xr, xf := g.val(depth - 1)
		return &negExpr{e: xr}, fold(&negExpr{e: xf})
	case 3:
		fields := []string{"year", "month", "day", "week"}
		field := fields[g.r.Intn(len(fields))]
		xr, xf := g.val(depth - 1)
		return &extractExpr{field: field, e: xr}, fold(&extractExpr{field: field, e: xf})
	case 4:
		cr, cf := &caseExpr{}, &caseExpr{}
		for n := g.r.Intn(3) + 1; n > 0; n-- {
			condR, condF := g.pred(depth - 1)
			thenR, thenF := g.val(depth - 1)
			cr.whens = append(cr.whens, boundWhen{cond: condR, then: thenR})
			cf.whens = append(cf.whens, boundWhen{cond: condF, then: thenF})
		}
		if g.r.Intn(2) == 0 {
			cr.els, cf.els = g.val(depth - 1)
		}
		return cr, cf
	case 5:
		return g.pred(depth - 1)
	}
	return g.leaf()
}

// pred returns a boolean-typed tree (or, now and then, a value used as
// a condition, which must fail the same way in both evaluators).
func (g *exprGen) pred(depth int) (raw, folded bexpr) {
	if depth <= 0 {
		if g.r.Intn(4) == 0 {
			e := &colExpr{pos: fcBool}
			return e, e
		}
		return g.cmp(0)
	}
	switch g.r.Intn(12) {
	case 0, 1:
		lr, lf := g.pred(depth - 1)
		rr, rf := g.pred(depth - 1)
		return &andExpr{l: lr, r: rr}, &andExpr{l: lf, r: rf}
	case 2:
		lr, lf := g.pred(depth - 1)
		rr, rf := g.pred(depth - 1)
		return &orExpr{l: lr, r: rr}, &orExpr{l: lf, r: rf}
	case 3:
		xr, xf := g.pred(depth - 1)
		return &notExpr{e: xr}, &notExpr{e: xf}
	case 4:
		vr, vf := g.val(depth - 1)
		lr, lf := g.val(depth - 1)
		hr, hf := g.val(depth - 1)
		not := g.r.Intn(3) == 0
		return &betweenExpr{e: vr, lo: lr, hi: hr, not: not}, &betweenExpr{e: vf, lo: lf, hi: hf, not: not}
	case 5:
		vr, vf := g.val(depth - 1)
		ir, iff := &inListExpr{e: vr, not: g.r.Intn(3) == 0}, &inListExpr{e: vf}
		iff.not = ir.not
		for n := g.r.Intn(4) + 1; n > 0; n-- {
			mr, mf := g.leaf()
			if g.r.Intn(3) != 0 {
				l := &litExpr{v: g.literal()}
				mr, mf = l, l
			}
			ir.list = append(ir.list, mr)
			iff.list = append(iff.list, mf)
		}
		return ir, iff
	case 6:
		var vr, vf bexpr = &colExpr{pos: fcStr}, nil
		vf = vr
		if g.r.Intn(3) == 0 {
			vr, vf = g.val(depth - 1)
		}
		var pr, pf bexpr = &litExpr{v: sqltypes.NewString(fuzzPatterns[g.r.Intn(len(fuzzPatterns))])}, nil
		pf = pr
		if g.r.Intn(5) == 0 {
			pr, pf = g.leaf()
		}
		not := g.r.Intn(3) == 0
		return &likeExpr{e: vr, pattern: pr, not: not}, &likeExpr{e: vf, pattern: pf, not: not}
	case 7:
		vr, vf := g.val(depth - 1)
		not := g.r.Intn(2) == 0
		return &isNullExpr{e: vr, not: not}, &isNullExpr{e: vf, not: not}
	case 8:
		return g.val(depth - 1)
	}
	return g.cmp(depth - 1)
}

// arith returns an arithmetic tree over the numeric columns and numeric
// literals only, where signed zeros, NaN, infinities and zero divisors
// reach the root instead of vanishing into a comparison.
func (g *exprGen) arith(depth int) (raw, folded bexpr) {
	if depth <= 0 || g.r.Intn(4) == 0 {
		if g.r.Intn(3) == 0 {
			e := &litExpr{v: g.value([]int{fcInt, fcFloat}[g.r.Intn(2)])}
			return e, e
		}
		e := &colExpr{pos: []int{fcInt, fcInt2, fcFloat, fcFloat2}[g.r.Intn(4)]}
		return e, e
	}
	if g.r.Intn(5) == 0 {
		xr, xf := g.arith(depth - 1)
		return &negExpr{e: xr}, fold(&negExpr{e: xf})
	}
	op := "+-*/"[g.r.Intn(4)]
	lr, lf := g.arith(depth - 1)
	rr, rf := g.arith(depth - 1)
	return &binExpr{op: op, l: lr, r: rr}, fold(&binExpr{op: op, l: lf, r: rf})
}

func (g *exprGen) cmp(depth int) (raw, folded bexpr) {
	ops := []string{"=", "<>", "<", "<=", ">", ">=", "!"}
	op := ops[g.r.Intn(len(ops))]
	lr, lf := g.val(depth)
	rr, rf := g.val(depth)
	if g.r.Intn(2) == 0 {
		// The specialized column-versus-literal shape, in either order.
		c := &colExpr{pos: g.r.Intn(fuzzCols)}
		l := &litExpr{v: g.literal()}
		lr, lf, rr, rf = c, c, l, l
		if g.r.Intn(2) == 0 {
			lr, lf, rr, rf = l, l, c, c
		}
	}
	return &cmpExpr{op: op, l: lr, r: rr}, &cmpExpr{op: op, l: lf, r: rf}
}

// sameValue is bit identity: same kind, same payload, floats compared
// by their bits (so NaN equals NaN and -0 differs from +0).
func sameValue(a, b sqltypes.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzCompiledExpr is the differential fuzz for kernels: for random
// bound trees over int, float, date, string and bool columns (intervals,
// LIKE patterns and IN lists included) and rows holding NULL, NaN, ±0
// and mixed int/float values, the folded tree's compiled kernel must
// return exactly the raw tree's eval value, and fail exactly when eval
// fails, with the same error.
func FuzzCompiledExpr(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed*43))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		g := &exprGen{r: rand.New(rand.NewSource(seed))}
		for tree := 0; tree < 8; tree++ {
			depth := int(shape%5) + 1
			var raw, folded bexpr
			switch shape >> 6 {
			case 0, 1:
				raw, folded = g.pred(depth)
			case 2:
				raw, folded = g.val(depth)
			default:
				raw, folded = g.arith(depth)
			}
			checkKernel(t, g, raw, folded)
		}
	})
}

// checkKernel compares the folded tree's kernel against the raw tree's
// eval over a batch of random rows and parameters.
func checkKernel(t *testing.T, g *exprGen, raw, folded bexpr) {
	t.Helper()
	k := compile(folded)
	ex := &execCtx{params: []sqltypes.Value{g.literal(), g.value(fcFloat)}}
	for i := 0; i < 16; i++ {
		ec := &evalCtx{ex: ex, row: g.row()}
		want, wantErr := raw.eval(ec)
		got, gotErr := k.value(ec)
		if errText(gotErr) != errText(wantErr) || (wantErr == nil && !sameValue(got, want)) {
			t.Fatalf("tree %s row %v:\nkernel = %#v, %v\neval   = %#v, %v", treeString(raw), ec.row, got, gotErr, want, wantErr)
		}
		tr, trErr := k.test(ec)
		wantTri, wantTriErr := triOf(want)
		if wantErr != nil {
			wantTriErr = wantErr
		}
		if errText(trErr) != errText(wantTriErr) || (wantTriErr == nil && tr != wantTri) {
			t.Fatalf("tree %s row %v: test = %v, %v; want %v, %v", treeString(raw), ec.row, tr, trErr, wantTri, wantTriErr)
		}
	}
}

// treeString renders a bound tree for failure messages.
func treeString(e bexpr) string {
	switch x := e.(type) {
	case nil:
		return "nil"
	case *colExpr:
		return "$" + string(rune('0'+x.pos))
	case *paramExpr:
		return "?" + string(rune('0'+x.idx))
	case *litExpr:
		return "lit(" + x.v.K.String() + " " + x.v.String() + ")"
	case *binExpr:
		return "(" + treeString(x.l) + " " + string(x.op) + " " + treeString(x.r) + ")"
	case *negExpr:
		return "-" + treeString(x.e)
	case *extractExpr:
		return "extract(" + x.field + ", " + treeString(x.e) + ")"
	case *cmpExpr:
		return "(" + treeString(x.l) + " " + x.op + " " + treeString(x.r) + ")"
	case *andExpr:
		return "(" + treeString(x.l) + " AND " + treeString(x.r) + ")"
	case *orExpr:
		return "(" + treeString(x.l) + " OR " + treeString(x.r) + ")"
	case *notExpr:
		return "NOT " + treeString(x.e)
	case *betweenExpr:
		return "(" + treeString(x.e) + " BETWEEN " + treeString(x.lo) + " AND " + treeString(x.hi) + ")"
	case *inListExpr:
		parts := make([]string, len(x.list))
		for i, m := range x.list {
			parts[i] = treeString(m)
		}
		return "(" + treeString(x.e) + " IN [" + strings.Join(parts, ", ") + "])"
	case *likeExpr:
		return "(" + treeString(x.e) + " LIKE " + treeString(x.pattern) + ")"
	case *isNullExpr:
		return "(" + treeString(x.e) + " IS NULL)"
	case *caseExpr:
		s := "CASE"
		for _, w := range x.whens {
			s += " WHEN " + treeString(w.cond) + " THEN " + treeString(w.then)
		}
		return s + " ELSE " + treeString(x.els) + " END"
	}
	return exprString(e)
}

// TestLikeMatcherAgreesWithLikeMatch pins the LIKE specializations
// (prefix, suffix, infix, exact, match-all) to the backtracking matcher
// over every pattern/subject pair drawn from small alphabets.
func TestLikeMatcherAgreesWithLikeMatch(t *testing.T) {
	var words []string
	var build func(prefix string, n int)
	build = func(prefix string, n int) {
		words = append(words, prefix)
		if n == 0 {
			return
		}
		for _, c := range []string{"A", "B", "%", "_"} {
			build(prefix+c, n-1)
		}
	}
	build("", 4)
	for _, p := range words {
		m := likeMatcher(p)
		for _, s := range words {
			if got, want := m(s), likeMatch(s, p); got != want {
				t.Fatalf("likeMatcher(%q)(%q) = %v, likeMatch = %v", p, s, got, want)
			}
		}
	}
}

// TestConstantFolding: literal-only subtrees bind to literals, date ±
// interval included, so constants are computed once per plan.
func TestConstantFolding(t *testing.T) {
	_, nd := newTestDB(t, 10, 1)
	root, _, err := nd.planSelect(mustSelect(t,
		`select ok from orders where odate >= date '1992-01-01' + interval '1' year and total < 2 * 3 + -1`))
	if err != nil {
		t.Fatal(err)
	}
	var filter *kernel
	switch s := root.(*projectOp).child.(type) {
	case *seqScanOp:
		filter = s.filter
	case *indexScanOp:
		filter = s.filter
	default:
		t.Fatalf("unexpected scan %T", s)
	}
	for _, c := range flatten(filter.tree(), true) {
		cmp, ok := c.(*cmpExpr)
		if !ok {
			t.Fatalf("conjunct %s is not a comparison", treeString(c))
		}
		if _, ok := cmp.r.(*litExpr); !ok {
			t.Errorf("constant side of %s was not folded", treeString(c))
		}
	}
}

// TestFoldErrorsSurfacePerRow: a constant whose evaluation fails is left
// unfolded, so the error surfaces exactly when a row reaches it — and
// not at all when no row does.
func TestFoldErrorsSurfacePerRow(t *testing.T) {
	_, nd := newTestDB(t, 50, 1)
	if _, err := nd.Query(`select ok from orders where total > 1/0`); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("row reaching 1/0: err = %v, want division by zero", err)
	}
	res, err := nd.Query(`select ok from orders where ok > 1000 and total > 1/0`)
	if err != nil {
		t.Fatalf("no row reaches 1/0, yet the query failed: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("empty range returned %d rows", len(res.Rows))
	}
}

// lineitemPage loads a lineitem-shaped table (the TPC-H columns Q1 and
// Q6 read, with TPC-H value ranges) and returns a node plus the rows of
// its first heap page.
func lineitemPage(tb testing.TB) (*Node, []sqltypes.Row) {
	tb.Helper()
	db := NewDatabase(costmodel.TestConfig())
	nd := NewNode(0, db)
	if _, err := nd.Exec(`create table lineitem (l_orderkey bigint, l_linenumber bigint,
		l_quantity double, l_extendedprice double, l_discount double, l_tax double,
		l_returnflag varchar, l_linestatus varchar, l_shipdate date,
		primary key (l_orderkey, l_linenumber))`); err != nil {
		tb.Fatal(err)
	}
	rel, _ := db.Relation("lineitem")
	r := rand.New(rand.NewSource(1))
	start := sqltypes.MustDate("1992-01-01").I
	for i := 0; i < 2000; i++ {
		qty := float64(r.Intn(50) + 1)
		row := sqltypes.Row{
			sqltypes.NewInt(int64(i/4 + 1)), sqltypes.NewInt(int64(i%4 + 1)),
			sqltypes.NewFloat(qty), sqltypes.NewFloat(qty * float64(900+r.Intn(1100))),
			sqltypes.NewFloat(float64(r.Intn(11)) / 100), sqltypes.NewFloat(float64(r.Intn(9)) / 100),
			sqltypes.NewString([]string{"A", "N", "R"}[r.Intn(3)]), sqltypes.NewString([]string{"F", "O"}[r.Intn(2)]),
			sqltypes.NewDate(start + int64(r.Intn(2500))),
		}
		if _, err := rel.Insert(0, row); err != nil {
			tb.Fatal(err)
		}
	}
	p := rel.PageSnapshot()[0]
	rows := make([]sqltypes.Row, p.Count())
	for s := range rows {
		rows[s] = p.Row(int32(s))
	}
	return nd, rows
}

// The TPC-H Q1 and Q6 texts as an SVP sub-query runs them: the virtual
// partition's key range is AND-ed onto the scan predicate.
const (
	kernelQ1 = `select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
		sum(l_extendedprice * (1 - l_discount)), sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
		avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
		from lineitem where l_shipdate <= date '1998-12-01' - interval '90' day
		and l_orderkey >= 1 and l_orderkey < 100000
		group by l_returnflag, l_linestatus`
	kernelQ6 = `select sum(l_extendedprice * l_discount) from lineitem
		where l_shipdate >= date '1994-01-01' and l_shipdate < date '1994-01-01' + interval '1' year
		and l_discount between 0.06 - 0.01 and 0.06 + 0.01 and l_quantity < 24
		and l_orderkey >= 1 and l_orderkey < 100000`
)

// planKernels plans a scan-aggregate query and returns its compiled scan
// filter, group keys and aggregate inputs.
func planKernels(tb testing.TB, nd *Node, text string) (filter *kernel, inputs []*kernel) {
	tb.Helper()
	st, err := sql.Parse(text)
	if err != nil {
		tb.Fatal(err)
	}
	root, _, err := nd.planSelect(st.(*sql.SelectStmt))
	if err != nil {
		tb.Fatal(err)
	}
	agg, ok := root.(*projectOp).child.(*aggOp)
	if !ok {
		tb.Fatalf("no aggregate under the projection: %T", root.(*projectOp).child)
	}
	switch s := agg.child.(type) {
	case *seqScanOp:
		filter = s.filter
	case *indexScanOp:
		filter = s.filter
	default:
		tb.Fatalf("unexpected scan %T", s)
	}
	inputs = append(inputs, agg.groups...)
	for _, def := range agg.aggs {
		if def.arg != nil {
			inputs = append(inputs, def.arg)
		}
	}
	return filter, inputs
}

// filterKernelPass runs the Q1 and Q6 scan predicates over the page and
// evaluates the Q1 group keys and aggregate inputs of every kept row,
// returning the number of rows Q1 kept.
func filterKernelPass(tb testing.TB, ec *evalCtx, rows []sqltypes.Row, q1f, q6f *kernel, q1in []*kernel) int {
	kept := 0
	for _, row := range rows {
		ec.row = row
		if _, err := q6f.keep(ec); err != nil {
			tb.Fatal(err)
		}
		ok, err := q1f.keep(ec)
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			continue
		}
		kept++
		for _, k := range q1in {
			if _, err := k.value(ec); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return kept
}

// BenchmarkAllocsFilterKernel measures the compiled hot path on one
// lineitem page: the Q1 and Q6 scan predicates plus the Q1 group keys
// and aggregate inputs. Run with -benchmem; allocs/op must stay 0.
func BenchmarkAllocsFilterKernel(b *testing.B) {
	nd, rows := lineitemPage(b)
	q1f, q1in := planKernels(b, nd, kernelQ1)
	q6f, _ := planKernels(b, nd, kernelQ6)
	ec := &evalCtx{ex: &execCtx{node: nd}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filterKernelPass(b, ec, rows, q1f, q6f, q1in)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}

// TestFilterKernelAllocsPerRow pins the allocation contract of compiled
// kernels: filtering a page and evaluating aggregate inputs allocates
// nothing per row.
func TestFilterKernelAllocsPerRow(t *testing.T) {
	nd, rows := lineitemPage(t)
	q1f, q1in := planKernels(t, nd, kernelQ1)
	q6f, _ := planKernels(t, nd, kernelQ6)
	ec := &evalCtx{ex: &execCtx{node: nd}}
	if kept := filterKernelPass(t, ec, rows, q1f, q6f, q1in); kept == 0 || len(rows) < 8 {
		t.Fatalf("degenerate page: %d rows, %d kept", len(rows), kept)
	}
	allocs := testing.AllocsPerRun(20, func() { filterKernelPass(t, ec, rows, q1f, q6f, q1in) })
	if allocs != 0 {
		t.Errorf("compiled filter + aggregate inputs allocate %.2f per page of %d rows, want 0", allocs, len(rows))
	}
}
