package engine

import (
	"fmt"
	"math"
	"strings"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// The planner turns a bound SELECT into an operator tree. It is
// rule-based with selectivity estimates from column min/max statistics,
// mirroring the decisions the paper depends on:
//
//   - single-table predicates are pushed into scans;
//   - a scan uses an index range when a sargable predicate constrains an
//     indexed column and either the estimated selectivity is low or
//     sequential scans are disabled (SET enable_seqscan = off — the knob
//     Apuama toggles so virtual partitions are honoured);
//   - equi-joins become hash joins, ordered greedily by estimated
//     cardinality, building on the smaller side;
//   - correlated sub-queries run as parameterized sub-plans whose
//     parameter-equality predicates use index lookups.

// planSelect plans a top-level SELECT.
func (n *Node) planSelect(stmt *sql.SelectStmt) (op, []string, error) {
	var params []bexpr
	root, cols, err := n.planSelectScoped(stmt, nil, &params)
	if err != nil {
		return nil, nil, err
	}
	if len(params) > 0 {
		return nil, nil, fmt.Errorf("query references unknown outer columns")
	}
	return root, cols, nil
}

// planSelectScoped plans a SELECT that may reference the outer scope
// (correlated sub-query); correlation parameter bindings are appended to
// params.
func (n *Node) planSelectScoped(stmt *sql.SelectStmt, outer *scope, params *[]bexpr) (op, []string, error) {
	if len(stmt.From) == 0 {
		return nil, nil, fmt.Errorf("FROM clause is required")
	}
	b := &binder{node: n}

	// Resolve FROM entries.
	tables := make([]tableBinding, len(stmt.From))
	for i, tr := range stmt.From {
		rel, err := n.db.Relation(tr.Name)
		if err != nil {
			return nil, nil, err
		}
		ref := tr.RefName()
		for j := 0; j < i; j++ {
			if tables[j].ref == ref {
				return nil, nil, fmt.Errorf("duplicate table name %q in FROM", ref)
			}
		}
		tables[i] = tableBinding{ref: ref, rel: rel}
	}
	nameScope := &scope{tables: tables, outer: outer, params: params}

	// Classify WHERE conjuncts.
	conjuncts := splitConjuncts(stmt.Where)
	var (
		tableFilters = make([][]sql.Expr, len(tables))
		joinPreds    []joinPred
		residuals    []residual
	)
	for _, c := range conjuncts {
		if containsSubquery(c) {
			residuals = append(residuals, residual{expr: c, tables: allTables(len(tables))})
			continue
		}
		refs, err := localTables(c, nameScope)
		if err != nil {
			return nil, nil, err
		}
		switch len(refs) {
		case 0:
			// Constant (or purely-correlated) condition: apply at top.
			residuals = append(residuals, residual{expr: c})
		case 1:
			tableFilters[refs[0]] = append(tableFilters[refs[0]], c)
		case 2:
			if l, r, ok := equiJoinSides(c, nameScope); ok {
				joinPreds = append(joinPreds, joinPred{expr: c, tables: refs, l: l, r: r})
				continue
			}
			residuals = append(residuals, residual{expr: c, tables: refs})
		default:
			residuals = append(residuals, residual{expr: c, tables: refs})
		}
	}

	// Build scans with access paths.
	scans := make([]*plannedScan, len(tables))
	for i := range tables {
		ps, err := n.planScan(b, i, tables[i], tableFilters[i], nameScope)
		if err != nil {
			return nil, nil, err
		}
		scans[i] = ps
	}

	// Greedy left-deep join order.
	root, layout, err := n.planJoins(b, scans, joinPreds, residuals, nameScope)
	if err != nil {
		return nil, nil, err
	}
	joinScope := nameScope.withOutputs(layout)

	// Aggregation?
	if hasAggregates(stmt) {
		return n.planAggregate(b, stmt, root, joinScope)
	}
	return n.planProjection(b, stmt, root, joinScope)
}

// --- conjunct analysis ---

func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*sql.AndExpr); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []sql.Expr{e}
}

func containsSubquery(e sql.Expr) bool {
	found := false
	sql.WalkExpr(e, func(x sql.Expr) bool {
		switch x.(type) {
		case *sql.ExistsExpr, *sql.SubqueryExpr:
			found = true
			return false
		case *sql.InExpr:
			if x.(*sql.InExpr).Sub != nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// localTables returns the FROM indexes referenced by the expression's
// column refs that resolve in this scope (outer references are ignored:
// they become parameters, i.e. constants).
func localTables(e sql.Expr, sc *scope) ([]int, error) {
	seen := map[int]bool{}
	var resolveErr error
	sql.WalkExpr(e, func(x sql.Expr) bool {
		cr, ok := x.(*sql.ColumnRef)
		if !ok {
			return true
		}
		for t, tb := range sc.tables {
			if cr.Table != "" && tb.ref != cr.Table {
				continue
			}
			if tb.rel.Schema.ColIndex(cr.Name) >= 0 {
				seen[t] = true
				return true
			}
		}
		return true
	})
	if resolveErr != nil {
		return nil, resolveErr
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	// Deterministic order.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out, nil
}

func allTables(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// joinPred is an equi-join conjunct between two tables.
type joinPred struct {
	expr   sql.Expr
	tables []int
	l, r   *sql.ColumnRef // l belongs to tables[0], r to tables[1]
}

type residual struct {
	expr   sql.Expr
	tables []int
}

// equiJoinSides recognizes col = col conjuncts and orients the sides so
// that l references tables[0] (the lower FROM index).
func equiJoinSides(e sql.Expr, sc *scope) (*sql.ColumnRef, *sql.ColumnRef, bool) {
	cmp, ok := e.(*sql.CompareExpr)
	if !ok || cmp.Op != "=" {
		return nil, nil, false
	}
	l, lok := cmp.L.(*sql.ColumnRef)
	r, rok := cmp.R.(*sql.ColumnRef)
	if !lok || !rok {
		return nil, nil, false
	}
	lt, _ := localTables(cmp.L, sc)
	rt, _ := localTables(cmp.R, sc)
	if len(lt) != 1 || len(rt) != 1 || lt[0] == rt[0] {
		return nil, nil, false
	}
	if lt[0] > rt[0] {
		return r, l, true
	}
	return l, r, true
}

// --- scan planning ---

// plannedScan carries a table scan candidate through join ordering.
type plannedScan struct {
	t      int
	rel    *storage.Relation
	op     op
	layout []colID
	est    float64
}

// planScan picks an access path for one table and binds its filters.
func (n *Node) planScan(b *binder, t int, tb tableBinding, filters []sql.Expr, nameScope *scope) (*plannedScan, error) {
	layout := make([]colID, len(tb.rel.Schema.Cols))
	for c := range layout {
		layout[c] = colID{t: t, c: c}
	}
	scanScope := nameScope.withOutputs(layout)

	filter, err := bindConjunction(b, filters, scanScope)
	if err != nil {
		return nil, err
	}

	rows := float64(tb.rel.LiveRows())
	if rows < 1 {
		rows = 1
	}
	sel := filterSelectivity(tb.rel, filters)
	best := chooseAccessPath(tb.rel, filters, nameScope)
	useIndex := false
	if best != nil {
		if !n.EnableSeqscan() {
			useIndex = true
		} else if best.selectivity <= 0.2 {
			useIndex = true
		}
	}
	var scanOp op
	if useIndex {
		lo, hi, err := bindBounds(b, best, nameScope)
		if err != nil {
			return nil, err
		}
		scanOp = &indexScanOp{
			rel: tb.rel, index: best.index,
			lo: lo, hi: hi, loIncl: best.loIncl, hiIncl: best.hiIncl,
			filter: filter,
		}
		// Columnar replacement of a clustered index range scan: every
		// conjunct is already in the scan filter (the bounds above are
		// redundant with it), so a columnar scan produces the same row
		// set, and zone maps on the clustered key prune the segments the
		// index range would never have touched. Row ORDER additionally
		// requires physical order to be key order, which only the built
		// segment generation knows — so the index scan rides along as the
		// runtime fallback. Secondary-index scans keep the heap path:
		// their output order is unrelated to physical order.
		if n.db.ColumnarEnabled() && best.index.Clustered && tb.rel.LiveRows() >= columnarMinRows {
			col := &colScanOp{rel: tb.rel, filter: filter, needKeyOrder: true, fallback: scanOp}
			scanOp = col
			// MQO: route segment reads through the node's shared-scan
			// coordinator so concurrent queries over the same snapshot
			// share one physical pass. The colScanOp rides along as the
			// fallback for unshareable generations.
			if n.db.MQOEnabled() {
				scanOp = &sharedScanOp{rel: tb.rel, filter: filter, needKeyOrder: true, fallback: col}
			}
		}
	} else if n.db.ColumnarEnabled() && tb.rel.LiveRows() >= columnarMinRows {
		col := &colScanOp{rel: tb.rel, filter: filter}
		scanOp = col
		if n.db.MQOEnabled() {
			scanOp = &sharedScanOp{rel: tb.rel, filter: filter, fallback: col}
		}
	} else {
		scanOp = &seqScanOp{rel: tb.rel, filter: filter}
	}
	return &plannedScan{t: t, rel: tb.rel, op: scanOp, layout: layout, est: math.Max(rows*sel, 1)}, nil
}

// bindConjunction binds single-table filters as one left-deep AND in
// conjunct order and compiles it (nil for no filters).
func bindConjunction(b *binder, filters []sql.Expr, sc *scope) (*kernel, error) {
	var filter bexpr
	for _, f := range filters {
		bf, err := b.bind(f, sc)
		if err != nil {
			return nil, err
		}
		if filter == nil {
			filter = bf
		} else {
			filter = &andExpr{l: filter, r: bf}
		}
	}
	return compile(filter), nil
}

// accessPath is a candidate index range.
type accessPath struct {
	index          *storage.Index
	lo, hi         sql.Expr // bound on the first index column; nil = open
	loIncl, hiIncl bool
	selectivity    float64
}

// chooseAccessPath finds the most selective index range constrained by
// the filters. Only the first index column is range-matched (enough for
// virtual partitioning and TPC-H predicates).
func chooseAccessPath(rel *storage.Relation, filters []sql.Expr, sc *scope) *accessPath {
	var best *accessPath
	for _, ix := range rel.Indexes() {
		ap := buildPath(rel, ix, filters, sc)
		if ap == nil {
			continue
		}
		if best == nil || ap.selectivity < best.selectivity ||
			(ap.selectivity == best.selectivity && ap.index.Clustered && !best.index.Clustered) {
			best = ap
		}
	}
	return best
}

func buildPath(rel *storage.Relation, ix *storage.Index, filters []sql.Expr, sc *scope) *accessPath {
	col := ix.Cols[0]
	name := rel.Schema.Cols[col].Name
	ap := &accessPath{index: ix, loIncl: true, hiIncl: true, selectivity: 1}
	constrained := false
	for _, f := range filters {
		switch e := f.(type) {
		case *sql.CompareExpr:
			colSide, constSide, op := sargSides(e, name, sc)
			if colSide == nil {
				continue
			}
			switch op {
			case "=":
				ap.lo, ap.hi = constSide, constSide
				ap.loIncl, ap.hiIncl = true, true
				constrained = true
			case ">":
				ap.lo, ap.loIncl = constSide, false
				constrained = true
			case ">=":
				ap.lo, ap.loIncl = constSide, true
				constrained = true
			case "<":
				ap.hi, ap.hiIncl = constSide, false
				constrained = true
			case "<=":
				ap.hi, ap.hiIncl = constSide, true
				constrained = true
			}
		case *sql.BetweenExpr:
			if e.Not {
				continue
			}
			if cr, ok := e.E.(*sql.ColumnRef); ok && cr.Name == name && isConstInScope(e.Lo, sc) && isConstInScope(e.Hi, sc) {
				ap.lo, ap.loIncl = e.Lo, true
				ap.hi, ap.hiIncl = e.Hi, true
				constrained = true
			}
		}
	}
	if !constrained {
		return nil
	}
	ap.selectivity = rangeSelectivity(rel, col, ap)
	return ap
}

// sargSides matches `col op const` or `const op col` (flipping the
// operator) for the given column name.
func sargSides(e *sql.CompareExpr, name string, sc *scope) (col *sql.ColumnRef, constSide sql.Expr, op string) {
	if cr, ok := e.L.(*sql.ColumnRef); ok && cr.Name == name && isConstInScope(e.R, sc) {
		return cr, e.R, e.Op
	}
	if cr, ok := e.R.(*sql.ColumnRef); ok && cr.Name == name && isConstInScope(e.L, sc) {
		return cr, e.L, sql.FlipCompare(e.Op)
	}
	return nil, nil, ""
}

// isConstInScope reports whether the expression contains no column
// reference that resolves in the local scope (outer references are
// runtime constants) and no sub-query.
func isConstInScope(e sql.Expr, sc *scope) bool {
	if containsSubquery(e) {
		return false
	}
	refs, err := localTables(e, sc)
	return err == nil && len(refs) == 0
}

// rangeSelectivity estimates the fraction of rows in the access path's
// range using column min/max statistics. Non-literal bounds (correlated
// parameters) are treated as point lookups.
func rangeSelectivity(rel *storage.Relation, col int, ap *accessPath) float64 {
	loLit, loOK := literalValue(ap.lo)
	hiLit, hiOK := literalValue(ap.hi)
	if ap.lo != nil && ap.hi != nil && ap.lo == ap.hi {
		// Equality.
		if ap.index.Unique && len(ap.index.Cols) == 1 {
			rows := float64(rel.LiveRows())
			if rows < 1 {
				rows = 1
			}
			return 1 / rows
		}
		return 0.005
	}
	min, max := rel.ColRange(col)
	if min.IsNull() || max.IsNull() {
		return 0.1
	}
	span := max.AsFloat() - min.AsFloat()
	if span <= 0 {
		return 0.1
	}
	lo := min.AsFloat()
	hi := max.AsFloat()
	if ap.lo != nil {
		if !loOK {
			return 0.01 // parameterized bound: assume selective
		}
		lo = loLit.AsFloat()
	}
	if ap.hi != nil {
		if !hiOK {
			return 0.01
		}
		hi = hiLit.AsFloat()
	}
	frac := (hi - lo) / span
	return math.Min(math.Max(frac, 0.0005), 1)
}

// literalValue folds literal-only expressions (date arithmetic included)
// to a value at plan time.
func literalValue(e sql.Expr) (sqltypes.Value, bool) {
	switch e := e.(type) {
	case nil:
		return sqltypes.Null(), false
	case *sql.Literal:
		return e.Val, true
	case *sql.BinaryExpr:
		l, lok := literalValue(e.L)
		r, rok := literalValue(e.R)
		if !lok || !rok {
			return sqltypes.Null(), false
		}
		var v sqltypes.Value
		var err error
		switch e.Op {
		case '+':
			v, err = sqltypes.Add(l, r)
		case '-':
			v, err = sqltypes.Sub(l, r)
		case '*':
			v, err = sqltypes.Mul(l, r)
		case '/':
			v, err = sqltypes.Div(l, r)
		}
		if err != nil {
			return sqltypes.Null(), false
		}
		return v, true
	case *sql.NegExpr:
		v, ok := literalValue(e.E)
		if !ok {
			return sqltypes.Null(), false
		}
		nv, err := sqltypes.Neg(v)
		if err != nil {
			return sqltypes.Null(), false
		}
		return nv, true
	default:
		return sqltypes.Null(), false
	}
}

// bindBounds binds the access path's bound expressions (constants or
// correlation parameters) for runtime evaluation.
func bindBounds(b *binder, ap *accessPath, nameScope *scope) (lo, hi []*kernel, err error) {
	constScope := nameScope.withOutputs(nil)
	constScope.tables = nil
	if ap.lo != nil {
		e, err := b.bind(ap.lo, constScope)
		if err != nil {
			return nil, nil, err
		}
		lo = []*kernel{compile(e)}
	}
	if ap.hi != nil {
		e, err := b.bind(ap.hi, constScope)
		if err != nil {
			return nil, nil, err
		}
		hi = []*kernel{compile(e)}
	}
	return lo, hi, nil
}

// filterSelectivity multiplies per-conjunct guesses for cardinality
// estimation (not access-path choice).
func filterSelectivity(rel *storage.Relation, filters []sql.Expr) float64 {
	sel := 1.0
	for _, f := range filters {
		switch e := f.(type) {
		case *sql.CompareExpr:
			if e.Op == "=" {
				sel *= 0.01
			} else {
				sel *= 0.33
			}
		case *sql.BetweenExpr:
			sel *= 0.1
		case *sql.InExpr:
			sel *= 0.05
		case *sql.LikeExpr:
			sel *= 0.1
		default:
			sel *= 0.5
		}
	}
	return math.Max(sel, 0.0001)
}

// --- join planning ---

// planJoins builds a left-deep join tree over the scans, applying
// residual filters as soon as their tables are available.
func (n *Node) planJoins(b *binder, scans []*plannedScan, preds []joinPred, residuals []residual, nameScope *scope) (op, []colID, error) {
	remaining := map[int]*plannedScan{}
	for _, s := range scans {
		remaining[s.t] = s
	}
	usedPred := make([]bool, len(preds))
	appliedRes := make([]bool, len(residuals))

	// Start with the smallest scan.
	var cur *plannedScan
	for _, s := range remaining {
		if cur == nil || s.est < cur.est || (s.est == cur.est && s.t < cur.t) {
			cur = s
		}
	}
	delete(remaining, cur.t)
	root, layout, est := cur.op, cur.layout, cur.est
	joined := map[int]bool{cur.t: true}

	applyResiduals := func() error {
		for i, r := range residuals {
			if appliedRes[i] {
				continue
			}
			ok := true
			for _, t := range r.tables {
				if !joined[t] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cond, err := b.bind(r.expr, nameScope.withOutputs(layout))
			if err != nil {
				return err
			}
			root = &filterOp{child: root, cond: compile(cond)}
			appliedRes[i] = true
		}
		return nil
	}
	if err := applyResiduals(); err != nil {
		return nil, nil, err
	}

	for len(remaining) > 0 {
		// Prefer a table connected by an equi-join predicate.
		var next *plannedScan
		for _, s := range remaining {
			connected := false
			for pi, p := range preds {
				if usedPred[pi] {
					continue
				}
				if (p.tables[0] == s.t && joined[p.tables[1]]) || (p.tables[1] == s.t && joined[p.tables[0]]) {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			if next == nil || s.est < next.est || (s.est == next.est && s.t < next.t) {
				next = s
			}
		}
		if next == nil {
			// Disconnected: cartesian product with the smallest.
			for _, s := range remaining {
				if next == nil || s.est < next.est || (s.est == next.est && s.t < next.t) {
					next = s
				}
			}
			delete(remaining, next.t)
			root = &nestedLoopOp{outer: root, inner: next.op}
			layout = append(append([]colID(nil), layout...), next.layout...)
			joined[next.t] = true
			est *= next.est
			if err := applyResiduals(); err != nil {
				return nil, nil, err
			}
			continue
		}
		delete(remaining, next.t)

		// Gather all usable equi-preds between next and the joined set.
		var probeKeyExprs, buildKeyExprs []*sql.ColumnRef
		for pi, p := range preds {
			if usedPred[pi] {
				continue
			}
			var joinedSide, nextSide *sql.ColumnRef
			switch {
			case p.tables[0] == next.t && joined[p.tables[1]]:
				nextSide, joinedSide = p.l, p.r
			case p.tables[1] == next.t && joined[p.tables[0]]:
				nextSide, joinedSide = p.r, p.l
			default:
				continue
			}
			usedPred[pi] = true
			probeKeyExprs = append(probeKeyExprs, joinedSide)
			buildKeyExprs = append(buildKeyExprs, nextSide)
		}

		curScope := nameScope.withOutputs(layout)
		nextScope := nameScope.withOutputs(next.layout)
		buildLeft := est <= next.est // materialize the smaller side

		var probeOp, buildOp op
		var probeLayout, buildLayout []colID
		var probeScope, buildScope *scope
		var probeCols, buildCols []*sql.ColumnRef
		if buildLeft {
			probeOp, probeLayout, probeScope, probeCols = next.op, next.layout, nextScope, buildKeyExprs
			buildOp, buildLayout, buildScope, buildCols = root, layout, curScope, probeKeyExprs
		} else {
			probeOp, probeLayout, probeScope, probeCols = root, layout, curScope, probeKeyExprs
			buildOp, buildLayout, buildScope, buildCols = next.op, next.layout, nextScope, buildKeyExprs
		}
		probeKeys, err := bindRefs(b, probeCols, probeScope)
		if err != nil {
			return nil, nil, err
		}
		buildKeys, err := bindRefs(b, buildCols, buildScope)
		if err != nil {
			return nil, nil, err
		}
		root = &hashJoinOp{probe: probeOp, build: buildOp, probeKeys: probeKeys, buildKeys: buildKeys}
		layout = append(append([]colID(nil), probeLayout...), buildLayout...)
		joined[next.t] = true
		est = math.Max(est, next.est) // FK-join cardinality heuristic
		if err := applyResiduals(); err != nil {
			return nil, nil, err
		}
	}
	for i := range appliedRes {
		if !appliedRes[i] {
			return nil, nil, fmt.Errorf("internal: residual predicate not applied")
		}
	}
	return root, layout, nil
}

func bindRefs(b *binder, refs []*sql.ColumnRef, sc *scope) ([]*kernel, error) {
	out := make([]*kernel, len(refs))
	for i, r := range refs {
		e, err := b.bind(r, sc)
		if err != nil {
			return nil, err
		}
		out[i] = compile(e)
	}
	return out, nil
}

// --- projection / aggregation ---

func hasAggregates(stmt *sql.SelectStmt) bool {
	if len(stmt.GroupBy) > 0 {
		return true
	}
	found := false
	check := func(e sql.Expr) {
		sql.WalkExpr(e, func(x sql.Expr) bool {
			if f, ok := x.(*sql.FuncExpr); ok && f.IsAggregate() {
				found = true
				return false
			}
			// Do not descend into sub-queries: their aggregates are theirs.
			switch x.(type) {
			case *sql.ExistsExpr, *sql.SubqueryExpr:
				return false
			}
			return true
		})
	}
	for _, it := range stmt.Items {
		if !it.Star {
			check(it.Expr)
		}
	}
	if stmt.Having != nil {
		check(stmt.Having)
	}
	return found
}

// itemName derives the output column name of a select item.
func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sql.ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.SQL()
}

// planProjection handles the non-aggregate tail: project, distinct,
// order by, limit.
func (n *Node) planProjection(b *binder, stmt *sql.SelectStmt, root op, joinScope *scope) (op, []string, error) {
	var items []bexpr
	var names []string
	for _, it := range stmt.Items {
		if it.Star {
			for t, tb := range joinScope.tables {
				for c, col := range tb.rel.Schema.Cols {
					pos := -1
					for p, o := range joinScope.outputs {
						if o == (colID{t: t, c: c}) {
							pos = p
							break
						}
					}
					if pos < 0 {
						return nil, nil, fmt.Errorf("internal: star column not in layout")
					}
					items = append(items, &colExpr{pos: pos})
					names = append(names, col.Name)
				}
			}
			continue
		}
		e, err := b.bind(it.Expr, joinScope)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, e)
		names = append(names, itemName(it))
	}
	// ORDER BY keys that are not in the select list are carried as hidden
	// trailing columns through the sort and trimmed afterwards (not legal
	// with DISTINCT, where output rows must be exactly the sort domain).
	hidden := 0
	for _, oi := range stmt.OrderBy {
		if orderKeyPosition(oi, stmt, names) >= 0 {
			continue
		}
		if stmt.Distinct {
			return nil, nil, fmt.Errorf("ORDER BY expression %q must appear in the select list with DISTINCT", oi.Expr.SQL())
		}
		e, err := b.bind(oi.Expr, joinScope)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, e)
		names = append(names, oi.Expr.SQL())
		hidden++
	}
	root = &projectOp{child: root, items: compileAll(items)}
	if stmt.Distinct {
		root = &distinctOp{child: root}
	}
	root, err := attachOrderLimit(stmt, root, names)
	if err != nil {
		return nil, nil, err
	}
	return trimHidden(root, names, hidden), names[:len(names)-hidden], nil
}

// trimHidden drops trailing hidden sort columns after ordering.
func trimHidden(root op, names []string, hidden int) op {
	if hidden == 0 {
		return root
	}
	visible := len(names) - hidden
	items := make([]*kernel, visible)
	for i := range items {
		items[i] = compile(&colExpr{pos: i})
	}
	return &projectOp{child: root, items: items}
}

// orderKeyPosition resolves an ORDER BY key against the select list by
// alias or expression text; -1 if absent.
func orderKeyPosition(oi sql.OrderItem, stmt *sql.SelectStmt, names []string) int {
	if cr, ok := oi.Expr.(*sql.ColumnRef); ok && cr.Table == "" {
		for i, n := range names {
			if n == cr.Name {
				return i
			}
		}
	}
	want := oi.Expr.SQL()
	for i, it := range stmt.Items {
		if !it.Star && it.Expr.SQL() == want {
			return i
		}
	}
	// Hidden columns appended earlier in this planning pass match by
	// their rendered name.
	for i := len(stmt.Items); i < len(names); i++ {
		if names[i] == want {
			return i
		}
	}
	return -1
}

// planAggregate handles GROUP BY / aggregate queries: aggregation over
// the join output, then HAVING, projection in "aggregate space", order
// by, limit.
func (n *Node) planAggregate(b *binder, stmt *sql.SelectStmt, root op, joinScope *scope) (op, []string, error) {
	// Bind group keys.
	groupMap := map[string]int{}
	var groupBinds []bexpr
	for i, g := range stmt.GroupBy {
		e, err := b.bind(g, joinScope)
		if err != nil {
			return nil, nil, err
		}
		groupBinds = append(groupBinds, e)
		groupMap[g.SQL()] = i
	}

	// Collect distinct aggregate calls from items and having.
	aggMap := map[string]int{}
	var aggDefs []*aggDef
	collect := func(e sql.Expr) error {
		var werr error
		sql.WalkExpr(e, func(x sql.Expr) bool {
			f, ok := x.(*sql.FuncExpr)
			if !ok || !f.IsAggregate() {
				switch x.(type) {
				case *sql.ExistsExpr, *sql.SubqueryExpr:
					return false
				}
				return true
			}
			key := f.SQL()
			if _, dup := aggMap[key]; dup {
				return false
			}
			def := &aggDef{fn: strings.ToLower(f.Name), distinct: f.Distinct}
			if f.Star {
				if def.fn != "count" {
					werr = fmt.Errorf("%s(*) is not valid", f.Name)
					return false
				}
			} else {
				if len(f.Args) != 1 {
					werr = fmt.Errorf("aggregate %s takes one argument", f.Name)
					return false
				}
				arg, err := b.bind(f.Args[0], joinScope)
				if err != nil {
					werr = err
					return false
				}
				def.arg = compile(arg)
			}
			aggMap[key] = len(aggDefs)
			aggDefs = append(aggDefs, def)
			return false
		})
		return werr
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("SELECT * cannot be combined with aggregation")
		}
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, nil, err
		}
	}
	for _, oi := range stmt.OrderBy {
		// ORDER BY may sort on an aggregate that is not projected.
		if err := collect(oi.Expr); err != nil {
			return nil, nil, err
		}
	}

	root = &aggOp{child: root, groups: compileAll(groupBinds), aggs: aggDefs}
	nGroups := len(groupBinds)

	if stmt.Having != nil {
		cond, err := bindAggSpace(b, stmt.Having, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, nil, err
		}
		root = &filterOp{child: root, cond: compile(cond)}
	}

	var items []bexpr
	var names []string
	for _, it := range stmt.Items {
		e, err := bindAggSpace(b, it.Expr, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, e)
		names = append(names, itemName(it))
	}
	// Hidden ORDER BY keys in aggregate space: the key must itself be a
	// group expression or aggregate (anything else has no value per
	// output row).
	hidden := 0
	for _, oi := range stmt.OrderBy {
		if orderKeyPosition(oi, stmt, names) >= 0 {
			continue
		}
		if stmt.Distinct {
			return nil, nil, fmt.Errorf("ORDER BY expression %q must appear in the select list with DISTINCT", oi.Expr.SQL())
		}
		e, err := bindAggSpace(b, oi.Expr, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, e)
		names = append(names, oi.Expr.SQL())
		hidden++
	}
	root = &projectOp{child: root, items: compileAll(items)}
	if stmt.Distinct {
		root = &distinctOp{child: root}
	}
	root, err := attachOrderLimit(stmt, root, names)
	if err != nil {
		return nil, nil, err
	}
	return trimHidden(root, names, hidden), names[:len(names)-hidden], nil
}

// bindAggSpace binds an expression above the aggregation operator: group
// keys and aggregate calls become slot references; anything else must be
// composed of those plus constants.
func bindAggSpace(b *binder, e sql.Expr, groupMap, aggMap map[string]int, nGroups int) (bexpr, error) {
	if pos, ok := groupMap[e.SQL()]; ok {
		return &aggRefExpr{pos: pos}, nil
	}
	if f, ok := e.(*sql.FuncExpr); ok && f.IsAggregate() {
		pos, ok := aggMap[f.SQL()]
		if !ok {
			return nil, fmt.Errorf("internal: aggregate %s not collected", f.SQL())
		}
		return &aggRefExpr{pos: nGroups + pos}, nil
	}
	switch e := e.(type) {
	case *sql.Literal:
		return &litExpr{v: e.Val}, nil
	case *sql.ColumnRef:
		return nil, fmt.Errorf("column %q must appear in GROUP BY or inside an aggregate", e.SQL())
	case *sql.BinaryExpr:
		l, err := bindAggSpace(b, e.L, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := bindAggSpace(b, e.R, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return fold(&binExpr{op: e.Op, l: l, r: r}), nil
	case *sql.NegExpr:
		x, err := bindAggSpace(b, e.E, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return fold(&negExpr{e: x}), nil
	case *sql.CompareExpr:
		l, err := bindAggSpace(b, e.L, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := bindAggSpace(b, e.R, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return &cmpExpr{op: e.Op, l: l, r: r}, nil
	case *sql.AndExpr:
		l, err := bindAggSpace(b, e.L, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := bindAggSpace(b, e.R, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return &andExpr{l: l, r: r}, nil
	case *sql.OrExpr:
		l, err := bindAggSpace(b, e.L, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := bindAggSpace(b, e.R, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return &orExpr{l: l, r: r}, nil
	case *sql.NotExpr:
		x, err := bindAggSpace(b, e.E, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return &notExpr{e: x}, nil
	case *sql.ExtractExpr:
		x, err := bindAggSpace(b, e.E, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return fold(&extractExpr{field: e.Field, e: x}), nil
	case *sql.CaseExpr:
		c := &caseExpr{}
		for _, w := range e.Whens {
			cond, err := bindAggSpace(b, w.Cond, groupMap, aggMap, nGroups)
			if err != nil {
				return nil, err
			}
			then, err := bindAggSpace(b, w.Then, groupMap, aggMap, nGroups)
			if err != nil {
				return nil, err
			}
			c.whens = append(c.whens, boundWhen{cond: cond, then: then})
		}
		if e.Else != nil {
			els, err := bindAggSpace(b, e.Else, groupMap, aggMap, nGroups)
			if err != nil {
				return nil, err
			}
			c.els = els
		}
		return c, nil
	default:
		return nil, fmt.Errorf("%T is not supported above aggregation", e)
	}
}

// attachOrderLimit resolves ORDER BY keys against the (possibly
// hidden-extended) output columns and appends sort and limit.
func attachOrderLimit(stmt *sql.SelectStmt, root op, names []string) (op, error) {
	if len(stmt.OrderBy) > 0 {
		var keys []sortKey
		for _, oi := range stmt.OrderBy {
			pos := orderKeyPosition(oi, stmt, names)
			if pos < 0 {
				return nil, fmt.Errorf("ORDER BY expression %q must appear in the select list", oi.Expr.SQL())
			}
			keys = append(keys, sortKey{expr: compile(&colExpr{pos: pos}), desc: oi.Desc})
		}
		root = &sortOp{child: root, keys: keys}
	}
	if stmt.Limit != nil {
		root = &limitOp{child: root, n: *stmt.Limit}
	}
	return root, nil
}
