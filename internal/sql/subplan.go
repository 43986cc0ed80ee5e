package sql

import (
	"hash/fnv"
	"sort"
)

// Sub-plan fingerprints: a stronger canonical form for the decomposed
// scan+filter+partial-aggregate fragments the Apuama engine ships to the
// nodes. FingerprintStmt only folds differences that cannot change the
// rendered shape (whitespace, case, IN-list order); two parent queries
// that spell the same sub-plan with their WHERE conjuncts in a different
// order, or a comparison written constant-first, still fingerprint
// differently — so the partial cache and the partition-level
// singleflight cannot collapse them. SubplanFingerprint closes exactly
// that gap, and nothing more: every rewrite below is semantics-
// preserving by construction (the FuzzSubplanFingerprint differential
// oracle in internal/core executes both forms and requires bit-equal
// results whenever fingerprints collide).

// SubplanFingerprint fingerprints a statement's canonical sub-plan
// form. Non-SELECT statements hash like FingerprintStmt.
func SubplanFingerprint(stmt Statement) Fingerprint {
	text := stmt.SQL()
	if sel, ok := stmt.(*SelectStmt); ok {
		text = CanonicalSubplan(sel).SQL()
	}
	h := fnv.New64a()
	h.Write([]byte(text))
	return Fingerprint(h.Sum64())
}

// CanonicalSubplan returns a normalized deep copy of the statement:
// everything CanonicalSelect does, plus
//
//   - comparison orientation: `literal op expr` becomes
//     `expr flip(op) literal`, so `10 > l_quantity` and
//     `l_quantity < 10` share one canonical text. Safe because the
//     engine evaluates both comparison operands before comparing and a
//     literal's evaluation can never fail, so swapping the operand
//     order can change neither the value nor the surfaced error; and
//   - conjunct order: the top-level WHERE conjuncts are sorted by
//     rendered form — but only when every conjunct is order-safe
//     (simple predicates over columns and literals whose evaluation
//     cannot fail). AND short-circuits, so reordering a conjunct that
//     could raise a runtime error past one that evaluates to false
//     would change which queries fail; restricting the sort to
//     never-failing predicates keeps the rewrite exact.
func CanonicalSubplan(sel *SelectStmt) *SelectStmt {
	out := CloneSelect(sel)
	canonicalizeSelect(out)
	WalkSelect(out, func(e Expr) bool {
		if cmp, ok := e.(*CompareExpr); ok {
			orientCompare(cmp)
		}
		return true
	})
	out.Where = sortConjuncts(out.Where)
	return out
}

// flipCmp maps a comparison operator to its operand-swapped equivalent.
var flipCmp = map[string]string{
	"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}

// FlipCompare returns the operator that keeps `a op b` true when the
// operands are swapped (`b FlipCompare(op) a`); unknown operators map
// to "".
func FlipCompare(op string) string { return flipCmp[op] }

// orientCompare rewrites `literal op expr` to `expr flip(op) literal`
// in place. Literal-vs-literal comparisons orient by rendered form so
// the two spellings of the same constant predicate also converge.
func orientCompare(cmp *CompareExpr) {
	_, lLit := cmp.L.(*Literal)
	_, rLit := cmp.R.(*Literal)
	swap := false
	switch {
	case lLit && rLit:
		swap = cmp.L.SQL() > cmp.R.SQL()
	case lLit:
		swap = true
	}
	if swap {
		cmp.L, cmp.R = cmp.R, cmp.L
		cmp.Op = flipCmp[cmp.Op]
	}
}

// sortConjuncts flattens a WHERE clause's AND tree, sorts the conjuncts
// by rendered form, and rebuilds a left-deep AND — but only when every
// conjunct is order-safe; otherwise the clause is returned unchanged.
func sortConjuncts(where Expr) Expr {
	if where == nil {
		return nil
	}
	conj := flattenAnd(where, nil)
	if len(conj) < 2 {
		return where
	}
	for _, c := range conj {
		if !orderSafeConjunct(c) {
			return where
		}
	}
	sort.SliceStable(conj, func(i, j int) bool { return conj[i].SQL() < conj[j].SQL() })
	out := conj[0]
	for _, c := range conj[1:] {
		out = &AndExpr{L: out, R: c}
	}
	return out
}

// flattenAnd appends the conjuncts of an AND tree to dst in tree order.
func flattenAnd(e Expr, dst []Expr) []Expr {
	if a, ok := e.(*AndExpr); ok {
		dst = flattenAnd(a.L, dst)
		return flattenAnd(a.R, dst)
	}
	return append(dst, e)
}

// orderSafeConjunct reports whether a conjunct's evaluation can never
// raise a runtime error, making it safe to move past its AND siblings:
// comparisons, BETWEEN, literal IN lists and IS NULL over plain columns
// and literals. Anything involving arithmetic (division can fail),
// functions, LIKE (non-string operands fail), CASE or sub-queries keeps
// its author-written position.
func orderSafeConjunct(e Expr) bool {
	switch x := e.(type) {
	case *CompareExpr:
		return plainOperand(x.L) && plainOperand(x.R)
	case *BetweenExpr:
		return plainOperand(x.E) && plainOperand(x.Lo) && plainOperand(x.Hi)
	case *InExpr:
		return x.Sub == nil && plainOperand(x.E) && allLiterals(x.List)
	case *IsNullExpr:
		return plainOperand(x.E)
	case *NotExpr:
		return orderSafeConjunct(x.E)
	}
	return false
}

// plainOperand is a bare column reference, a literal, or a negated
// literal — operands whose evaluation cannot fail.
func plainOperand(e Expr) bool {
	switch x := e.(type) {
	case *ColumnRef, *Literal:
		return true
	case *NegExpr:
		_, lit := x.E.(*Literal)
		return lit
	}
	return false
}
