package core

import (
	"context"
	"fmt"

	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// ctxCheckRows is how many rows the materialized composers process
// between context checks: frequent enough to abandon a large merge soon
// after the query deadline passes, cheap enough to be invisible.
const ctxCheckRows = 1024

// composeStreaming is the ablation composer: instead of handing every
// partial row to the in-memory DBMS, it folds partials per group key in
// a hash table (sum/min/max merges from Rewrite.ComposeOps) and only
// runs the final projection/ordering over the folded rows. This measures
// how much of the composition cost the paper's HSQLDB route spends on
// re-aggregation versus projection.
//
// This materialized form remains the AVP composer; the SVP gather path
// streams into a foldSink instead (see gather.go).
func (e *Engine) composeStreaming(ctx context.Context, rw *Rewrite, partials []*engine.Result) (*engine.Result, error) {
	nG := rw.GroupCount
	nAgg := len(rw.ComposeOps)
	if nAgg == 0 {
		// Plain (non-aggregate) rewrite: nothing to fold, just union.
		var all []sqltypes.Row
		for _, p := range partials {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			all = append(all, p.Rows...)
		}
		return e.composeRows(ctx, rw, all, "svpfold")
	}
	type grp struct{ row sqltypes.Row }
	buckets := map[uint64][]*grp{}
	var order []*grp
	seen := 0
	for _, p := range partials {
		for _, row := range p.Rows {
			if seen++; seen%ctxCheckRows == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if len(row) != nG+nAgg {
				return nil, fmt.Errorf("composer: partial row width %d, want %d", len(row), nG+nAgg)
			}
			key := row[:nG]
			h := sqltypes.HashRow(key)
			var g *grp
			for _, cand := range buckets[h] {
				if sqltypes.RowsEqual(cand.row[:nG], key) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &grp{row: row.Clone()}
				buckets[h] = append(buckets[h], g)
				order = append(order, g)
				continue
			}
			for i, op := range rw.ComposeOps {
				a, b := g.row[nG+i], row[nG+i]
				merged, err := foldValues(op, a, b)
				if err != nil {
					return nil, err
				}
				g.row[nG+i] = merged
			}
		}
	}
	folded := make([]sqltypes.Row, 0, len(order))
	for _, g := range order {
		folded = append(folded, g.row)
	}
	// A scalar-aggregate query with no matching rows anywhere still
	// produces its single empty-aggregate row in the final projection.
	return e.composeRows(ctx, rw, folded, "svpfold")
}

// composeRows loads rows into the composition database and runs the
// composition query over them, honouring ctx between chunks.
func (e *Engine) composeRows(ctx context.Context, rw *Rewrite, rows []sqltypes.Row, prefix string) (*engine.Result, error) {
	ld := e.mem.NewLoader(prefix, rw.PartialCols)
	defer ld.Close()
	for len(rows) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := rows
		if len(chunk) > ctxCheckRows {
			chunk = chunk[:ctxCheckRows]
		}
		if err := ld.Append(chunk); err != nil {
			return nil, fmt.Errorf("composer: %w", err)
		}
		rows = rows[len(chunk):]
	}
	name, err := ld.Finish()
	if err != nil {
		return nil, fmt.Errorf("composer: %w", err)
	}
	return e.composeLoaded(rw, name)
}

// composeLoaded runs the composition query over an already-loaded table.
func (e *Engine) composeLoaded(rw *Rewrite, name string) (*engine.Result, error) {
	compose := sql.CloneSelect(rw.Compose)
	compose.From[0].Name = name
	res, err := e.mem.QueryStmt(compose)
	if err != nil {
		return nil, fmt.Errorf("composer: %w", err)
	}
	return res, nil
}

// foldValues merges two partial aggregate values. NULLs (empty-partition
// sums) are absorbed.
func foldValues(op string, a, b sqltypes.Value) (sqltypes.Value, error) {
	if a.IsNull() {
		return b, nil
	}
	if b.IsNull() {
		return a, nil
	}
	switch op {
	case "sum":
		return sqltypes.Add(a, b)
	case "min":
		if sqltypes.Compare(b, a) < 0 {
			return b, nil
		}
		return a, nil
	case "max":
		if sqltypes.Compare(b, a) > 0 {
			return b, nil
		}
		return a, nil
	default:
		return sqltypes.Null(), fmt.Errorf("composer: unknown fold %q", op)
	}
}
