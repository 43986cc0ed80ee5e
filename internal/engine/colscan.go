package engine

import (
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// Columnar scan: reads a relation's column segments (storage.Segment)
// instead of its heap pages. The segments were materialized once per
// write epoch, so per-row work drops to a visibility check plus filter
// evaluation over prebuilt row views, and — the real win — per-segment
// min/max zone maps let whole segments be skipped before a single row
// is touched. Skipped segments charge no page IO and no per-tuple CPU;
// scanned segments charge exactly what the heap scan would have charged
// for the same pages and slots, so virtual-time benches compare the two
// paths honestly.
//
// Determinism: a columnar scan emits exactly the rows (and row order) of
// the heap scan it replaces. For a sequential scan that is immediate —
// segments cover the page list in order, and pruning only removes rows
// the filter would reject. A scan replacing a clustered index range scan
// additionally needs physical order to BE key order; the segment build
// records that property (SegmentSet.KeyOrdered, strict over all rows),
// and when it does not hold the operator opens its heap fallback
// instead. The planner binds every conjunct into the scan filter (index
// bounds are redundant with it), so the row set needs no special-casing.

// columnarMinRows gates columnar planning: tiny relations rebuild
// segments more often than they scan them, and the heap scan is already
// microseconds.
const columnarMinRows = 256

// zonePred is one prunable conjunct of a scan filter: a comparison or
// BETWEEN between a column and constant expressions, checkable against a
// segment's min/max zone map.
type zonePred struct {
	col    int
	op     string // "=", "<>", "<", "<=", ">", ">=", "between"
	v      bexpr  // comparison constant (nil for between)
	lo, hi bexpr  // between bounds
}

// zoneCheck is a zonePred with its constants evaluated.
type zoneCheck struct {
	col    int
	op     string
	v      sqltypes.Value
	lo, hi sqltypes.Value
}

// collectZonePreds walks the conjuncts of a bound filter and returns the
// prunable ones. allowParams admits correlation-parameter constants
// (runtime pruning has an execCtx to resolve them; the static EXPLAIN
// pruner does not and must exclude them).
func collectZonePreds(e bexpr, allowParams bool) []zonePred {
	var out []zonePred
	var walk func(e bexpr)
	walk = func(e bexpr) {
		switch x := e.(type) {
		case *andExpr:
			walk(x.l)
			walk(x.r)
		case *cmpExpr:
			if c, ok := x.l.(*colExpr); ok && constExpr(x.r, allowParams) {
				out = append(out, zonePred{col: c.pos, op: x.op, v: x.r})
				return
			}
			if c, ok := x.r.(*colExpr); ok && constExpr(x.l, allowParams) {
				out = append(out, zonePred{col: c.pos, op: sql.FlipCompare(x.op), v: x.l})
			}
		case *betweenExpr:
			if x.not {
				return
			}
			if c, ok := x.e.(*colExpr); ok && constExpr(x.lo, allowParams) && constExpr(x.hi, allowParams) {
				out = append(out, zonePred{col: c.pos, op: "between", lo: x.lo, hi: x.hi})
			}
		}
	}
	walk(e)
	return out
}

// constExpr reports whether a bound expression evaluates to the same
// value for every row: literals, parameters (when allowed) and
// arithmetic over them. Anything touching the tuple or a sub-plan is
// not constant.
func constExpr(e bexpr, allowParams bool) bool {
	switch x := e.(type) {
	case *litExpr:
		return true
	case *paramExpr:
		return allowParams
	case *binExpr:
		return constExpr(x.l, allowParams) && constExpr(x.r, allowParams)
	case *negExpr:
		return constExpr(x.e, allowParams)
	case *extractExpr:
		return constExpr(x.e, allowParams)
	default:
		return false
	}
}

// resolveZoneChecks evaluates the predicates' constants once. A
// predicate whose constant fails to evaluate is dropped (pruning is
// best-effort; the row-level filter still decides).
func resolveZoneChecks(preds []zonePred, ec *evalCtx) []zoneCheck {
	checks := make([]zoneCheck, 0, len(preds))
	for _, p := range preds {
		c := zoneCheck{col: p.col, op: p.op}
		ok := true
		evalTo := func(e bexpr, dst *sqltypes.Value) {
			if e == nil || !ok {
				return
			}
			v, err := compile(e).value(ec)
			if err != nil {
				ok = false
				return
			}
			*dst = v
		}
		evalTo(p.v, &c.v)
		evalTo(p.lo, &c.lo)
		evalTo(p.hi, &c.hi)
		if ok {
			checks = append(checks, c)
		}
	}
	return checks
}

// prunes reports that the check proves NO row of the segment can
// satisfy its conjunct — the only direction pruning is allowed to err
// in is keeping a segment it could have skipped.
//
// Rules (sqltypes.Compare is the same total order row-level cmpExpr
// uses, so no type gating is needed): a NULL constant makes the
// predicate NULL for every row, and a filter keeps only TRUE, so the
// segment prunes; an all-NULL column (zone-map Min is NULL) likewise
// compares to NULL everywhere. Zone maps cover every stored row (dead
// ones included), so a visible qualifying row always lands in a kept
// segment.
func (z *zoneCheck) prunes(seg *storage.Segment) bool {
	min, max := seg.ColMin(z.col), seg.ColMax(z.col)
	if z.op == "between" {
		if z.lo.IsNull() || z.hi.IsNull() || min.IsNull() {
			return true
		}
		return sqltypes.Compare(z.hi, min) < 0 || sqltypes.Compare(z.lo, max) > 0
	}
	if z.v.IsNull() || min.IsNull() {
		return true
	}
	switch z.op {
	case "=":
		return sqltypes.Compare(z.v, min) < 0 || sqltypes.Compare(z.v, max) > 0
	case "<":
		return sqltypes.Compare(min, z.v) >= 0
	case "<=":
		return sqltypes.Compare(min, z.v) > 0
	case ">":
		return sqltypes.Compare(max, z.v) <= 0
	case ">=":
		return sqltypes.Compare(max, z.v) < 0
	case "<>":
		return sqltypes.Compare(min, max) == 0 && sqltypes.Compare(z.v, min) == 0
	}
	return false
}

// pruneSegments partitions a generation's segments under the checks,
// returning the kept ones in ordinal order.
func pruneSegments(set *storage.SegmentSet, checks []zoneCheck) (kept []*storage.Segment, pruned int) {
	kept = make([]*storage.Segment, 0, len(set.Segments))
	for _, seg := range set.Segments {
		skip := false
		for i := range checks {
			if checks[i].prunes(seg) {
				skip = true
				break
			}
		}
		if skip {
			pruned++
			continue
		}
		kept = append(kept, seg)
	}
	return kept, pruned
}

// --- columnar sequential scan operator ---

// colScanOp is the serial columnar scan. It emits exactly the row
// stream of the heap scan it replaced (see the package comment above):
// kept segments in order, rows in physical order, MVCC and filter
// applied per row. fallback, when set, is the heap operator to open
// instead if the segment generation turns out not to be key-ordered
// (needKeyOrder: this op replaced a clustered index range scan).
type colScanOp struct {
	rel    *storage.Relation
	filter *kernel // full conjunctive scan predicate (may be nil)

	needKeyOrder bool
	fallback     op

	set           *storage.SegmentSet
	kept          []*storage.Segment
	prunedCount   int
	si            int // index into kept
	ri            int // row index within current segment
	pg            int // page index within current segment
	usingFallback bool
	ec            evalCtx
}

func (s *colScanOp) open(ex *execCtx) error {
	s.ec = evalCtx{ex: ex}
	s.si, s.ri, s.pg = 0, 0, 0
	s.usingFallback = false

	set, built := s.rel.Segments(ex.snapshot)
	s.set = set
	if built {
		ex.node.pstats.addSegBuilt(int64(len(set.Segments)))
		ex.node.pstats.setSegBytes(ex.node.db.SegmentBytes())
	}
	if s.needKeyOrder && !set.KeyOrdered {
		s.usingFallback = true
		if s.fallback == nil {
			s.usingFallback = false // no fallback: full scan is still correct for order-insensitive parents
		} else {
			return s.fallback.open(ex)
		}
	}

	checks := resolveZoneChecks(collectZonePreds(s.filter.tree(), true), &s.ec)
	s.kept, s.prunedCount = pruneSegments(set, checks)
	ex.node.pstats.addSegPruned(int64(s.prunedCount))
	ex.node.pstats.addSegScanned(int64(len(s.kept)))
	if len(s.kept) > 0 {
		ex.touch(s.kept[0].PageIDs[0], true)
	}
	return nil
}

func (s *colScanOp) next(ex *execCtx, out *sqltypes.Batch) error {
	if s.usingFallback {
		return s.fallback.next(ex, out)
	}
	cfg := ex.meter.Config()
	for s.si < len(s.kept) {
		seg := s.kept[s.si]
		n := seg.NumRows()
		for s.ri < n {
			if out.Full() {
				return nil
			}
			for s.pg < len(seg.PageEnds) && int32(s.ri) >= seg.PageEnds[s.pg] {
				s.pg++
				if s.pg < len(seg.PageIDs) {
					ex.touch(seg.PageIDs[s.pg], true)
					ex.meter.MaybeFlush()
				}
			}
			i := s.ri
			s.ri++
			ex.meter.Charge(cfg.CPUTuple)
			if !seg.Visible(i, ex.snapshot) {
				continue
			}
			row := seg.Rows[i]
			s.ec.row = row
			if keep, err := s.filter.keep(&s.ec); !keep {
				if err != nil {
					return err
				}
				continue
			}
			out.Append(row)
		}
		// Pages past the last row (possible only on short tail pages)
		// still cost their sequential read, as the heap scan pays it.
		for s.pg+1 < len(seg.PageIDs) {
			s.pg++
			ex.touch(seg.PageIDs[s.pg], true)
			ex.meter.MaybeFlush()
		}
		s.si++
		s.ri, s.pg = 0, 0
		if s.si < len(s.kept) {
			ex.touch(s.kept[s.si].PageIDs[0], true)
			ex.meter.MaybeFlush()
		}
	}
	return nil
}

func (s *colScanOp) close() {
	if s.usingFallback {
		s.fallback.close()
	}
	s.kept = nil
	s.set = nil
}
