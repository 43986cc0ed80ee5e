package core

import (
	"context"
	"fmt"
	"time"

	"apuama/internal/admission"
	"apuama/internal/engine"
	"apuama/internal/memdb"
	"apuama/internal/sqltypes"
)

// gatherMsg is one message from a sub-query worker to the gather loop:
// either a batch of partial rows (batch != nil) or the end of an attempt
// (fin). Attempt IDs are unique across the whole query, so the gather
// can tell a retry's rows from its predecessor's and a hedge's from the
// original's.
type gatherMsg struct {
	idx     int
	attempt int64
	hedge   bool
	batch   *sqltypes.Batch // partial rows; ownership transfers to the receiver
	fin     bool            // attempt ended (success when err == nil)
	err     error
	retry   bool          // with fin+err: the worker is retrying, not giving up
	dur     time.Duration // with a successful fin: the attempt's stream time
}

// composeSink consumes partial batches incrementally as the gather loop
// receives them, so composition overlaps the slowest sub-queries instead
// of starting after the last one. Attempts stream independently; commit
// fixes one attempt as a partition's winner (partition-order composition
// is the sink's responsibility), abort discards a failed or losing
// attempt, finish produces the final result, and release frees whatever
// the sink still holds in the composition database, on every path out
// of the gather (success, error, cancellation).
//
// All methods are called from the single gather goroutine; sinks need no
// locking. observe takes ownership of the batch and must return it to
// the pool.
type composeSink interface {
	observe(idx int, attempt int64, b *sqltypes.Batch) error
	commit(idx int, attempt int64) error
	abort(idx int, attempt int64) error
	finish(ctx context.Context) (*engine.Result, error)
	release()
}

// newComposeSink picks the composer route: the paper's memdb (HSQLDB
// stand-in) load for the default path and for plain rewrites, the
// streaming fold for aggregate rewrites under the StreamCompose
// ablation. Both begin consuming on the first arriving batch.
// Every sink charges the memory it retains — buffered attempt rows,
// fold-table groups — against the query's admission reservation (a nil
// reservation is a no-op, so the sinks charge unconditionally).
func (e *Engine) newComposeSink(rw *Rewrite, n int, res *admission.Reservation) composeSink {
	if e.opts.StreamCompose && len(rw.ComposeOps) > 0 {
		return &foldSink{
			e: e, rw: rw, n: n, res: res,
			tables:    map[attemptKey]*foldTable{},
			winner:    make([]int64, n),
			committed: make([]bool, n),
		}
	}
	prefix := "svp"
	if e.opts.StreamCompose {
		prefix = "svpfold"
	}
	return &memdbSink{
		e: e, rw: rw, n: n, res: res,
		ld:        e.mem.NewLoader(prefix, rw.PartialCols),
		bufs:      map[attemptKey][]sqltypes.Row{},
		winner:    make([]int64, n),
		committed: make([]bool, n),
	}
}

type attemptKey struct {
	idx     int
	attempt int64
}

// memdbSink streams partial rows into the composition database as they
// arrive. Rows must land in partition order (floating-point composition
// is not associative across orderings, and LIMIT without ORDER BY takes
// the leading rows), so the sink feeds the loader frontier-optimistically:
// the frontier partition's first-observed attempt streams straight into
// the table while later partitions buffer. When a partition commits with
// the streamed attempt as its winner — the common case — its rows are
// already loaded; when a retry or hedge twin won instead, the table is
// rebuilt from the retained winner buffers (rare: it takes a mid-stream
// failure or a lost race at the frontier).
type memdbSink struct {
	e   *Engine
	rw  *Rewrite
	n   int
	ld  *memdb.Loader
	res *admission.Reservation // memory-budget account for retained rows

	// bufs retains every live attempt's rows: the frontier needs them to
	// adopt a partition mid-stream, rebuilds need the winners.
	bufs      map[attemptKey][]sqltypes.Row
	winner    []int64
	committed []bool
	frontier  int   // partitions [0, frontier) are fully loaded
	source    int64 // attempt streaming into the loader at the frontier (0 = none)
}

func (s *memdbSink) observe(idx int, attempt int64, b *sqltypes.Batch) error {
	// The sink retains every row it buffers (and the loader copies the
	// frontier stream), so each arriving batch grows the query's memory
	// reservation before it is kept.
	if err := s.res.Grow(rowsBytes(b.Rows)); err != nil {
		sqltypes.PutBatch(b)
		return err
	}
	k := attemptKey{idx, attempt}
	buf := append(s.bufs[k], b.Rows...)
	s.bufs[k] = buf
	fresh := buf[len(buf)-b.Len():]
	sqltypes.PutBatch(b)
	if idx != s.frontier {
		return nil
	}
	if s.source == attempt {
		return s.ld.Append(fresh)
	}
	if s.source == 0 {
		return s.adopt()
	}
	return nil
}

func (s *memdbSink) commit(idx int, attempt int64) error {
	s.winner[idx] = attempt
	s.committed[idx] = true
	return s.advance()
}

func (s *memdbSink) abort(idx int, attempt int64) error {
	delete(s.bufs, attemptKey{idx, attempt})
	if idx == s.frontier && s.source == attempt {
		// The attempt being streamed died mid-flight: rewind to the
		// committed prefix and re-adopt among surviving attempts.
		s.source = 0
		if err := s.rebuildPrefix(s.frontier); err != nil {
			return err
		}
		return s.adopt()
	}
	return nil
}

func (s *memdbSink) finish(ctx context.Context) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	name, err := s.ld.Finish()
	if err != nil {
		return nil, err
	}
	return s.e.composeLoaded(s.rw, name)
}

func (s *memdbSink) release() { s.ld.Close() }

// advance resolves committed partitions at the frontier. A worker's fin
// message follows all its batches (one FIFO channel, one consumer), so
// when the streamed attempt is the winner its rows are fully loaded.
func (s *memdbSink) advance() error {
	for s.frontier < s.n && s.committed[s.frontier] {
		if s.source != s.winner[s.frontier] {
			if err := s.rebuildPrefix(s.frontier + 1); err != nil {
				return err
			}
		}
		s.frontier++
		s.source = 0
	}
	if s.frontier < s.n {
		return s.adopt()
	}
	return nil
}

// adopt starts streaming the best buffered attempt of the (uncommitted)
// frontier partition, preferring the one furthest along.
func (s *memdbSink) adopt() error {
	best := int64(0)
	var bestRows []sqltypes.Row
	for k, rows := range s.bufs {
		if k.idx != s.frontier {
			continue
		}
		if best == 0 || len(rows) > len(bestRows) {
			best, bestRows = k.attempt, rows
		}
	}
	s.source = best
	if best == 0 {
		return nil
	}
	return s.ld.Append(bestRows)
}

// rebuildPrefix reloads the table with the winners of partitions
// [0, upto) in partition order.
func (s *memdbSink) rebuildPrefix(upto int) error {
	s.ld.Reset()
	for p := 0; p < upto; p++ {
		if err := s.ld.Append(s.bufs[attemptKey{p, s.winner[p]}]); err != nil {
			return err
		}
	}
	return nil
}

// foldSink is the StreamCompose route for aggregate rewrites: each
// attempt folds into its own hash table as batches arrive; at finish the
// winners merge in partition order (same float-composition order as the
// materialized composer) and the composition query projects the folded
// rows.
type foldSink struct {
	e   *Engine
	rw  *Rewrite
	n   int
	res *admission.Reservation // memory-budget account for fold groups

	tables    map[attemptKey]*foldTable
	winner    []int64
	committed []bool
}

type foldGrp struct{ row sqltypes.Row }

type foldTable struct {
	buckets map[uint64][]*foldGrp
	order   []*foldGrp
}

func newFoldTable() *foldTable { return &foldTable{buckets: map[uint64][]*foldGrp{}} }

// add folds one partial row into the table, merging aggregates on a
// group-key hit. It reports whether a new group was created (a merge
// retains no extra memory; a creation clones the row).
func (t *foldTable) add(rw *Rewrite, row sqltypes.Row) (bool, error) {
	nG := rw.GroupCount
	if len(row) != nG+len(rw.ComposeOps) {
		return false, fmt.Errorf("partial row width %d, want %d", len(row), nG+len(rw.ComposeOps))
	}
	key := row[:nG]
	h := sqltypes.HashRow(key)
	for _, cand := range t.buckets[h] {
		if sqltypes.RowsEqual(cand.row[:nG], key) {
			for i, op := range rw.ComposeOps {
				merged, err := foldValues(op, cand.row[nG+i], row[nG+i])
				if err != nil {
					return false, err
				}
				cand.row[nG+i] = merged
			}
			return false, nil
		}
	}
	g := &foldGrp{row: row.Clone()}
	t.buckets[h] = append(t.buckets[h], g)
	t.order = append(t.order, g)
	return true, nil
}

func (s *foldSink) observe(idx int, attempt int64, b *sqltypes.Batch) error {
	k := attemptKey{idx, attempt}
	t := s.tables[k]
	if t == nil {
		t = newFoldTable()
		s.tables[k] = t
	}
	// Only created groups retain memory (merges fold in place), so the
	// reservation grows by the freshly cloned group rows per batch.
	var created int64
	for _, row := range b.Rows {
		fresh, err := t.add(s.rw, row)
		if err != nil {
			sqltypes.PutBatch(b)
			return err
		}
		if fresh {
			created += 24 + int64(len(row))*40
		}
	}
	sqltypes.PutBatch(b)
	return s.res.Grow(created)
}

func (s *foldSink) commit(idx int, attempt int64) error {
	s.winner[idx] = attempt
	s.committed[idx] = true
	return nil
}

func (s *foldSink) abort(idx int, attempt int64) error {
	delete(s.tables, attemptKey{idx, attempt})
	return nil
}

// release is a no-op: the fold tables live in Go memory, and finish's
// composition load closes its own table.
func (s *foldSink) release() {}

func (s *foldSink) finish(ctx context.Context) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged := newFoldTable()
	for p := 0; p < s.n; p++ {
		if !s.committed[p] {
			continue
		}
		t := s.tables[attemptKey{p, s.winner[p]}]
		if t == nil {
			continue // empty partition: no batches ever arrived
		}
		for _, g := range t.order {
			if _, err := merged.add(s.rw, g.row); err != nil {
				return nil, err
			}
		}
	}
	folded := make([]sqltypes.Row, 0, len(merged.order))
	for _, g := range merged.order {
		folded = append(folded, g.row)
	}
	// A scalar-aggregate query with no matching rows anywhere still
	// produces its single empty-aggregate row in the final projection.
	return s.e.composeRows(ctx, s.rw, folded, "svpfold")
}
