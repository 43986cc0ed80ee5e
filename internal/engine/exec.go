package engine

import (
	"context"
	"sort"
	"time"

	"apuama/internal/costmodel"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// execCtx is the runtime context of one plan execution on one node.
type execCtx struct {
	node     *Node
	snapshot int64
	params   []sqltypes.Value

	// meter is the cost sink for this execution: the node's meter for
	// serial plans, a private per-worker meter inside a parallel
	// fragment (so concurrent workers' simulated latencies overlap in
	// wall-clock instead of serializing on one pending balance).
	meter *costmodel.Meter

	// ctx, when non-nil, is checked by long-running operators (one check
	// per morsel on the parallel path) so cancelled queries stop early.
	ctx context.Context

	// batchCap overrides the capacity of operator-internal batches
	// (0 = sqltypes.DefaultBatchCapacity). The batch-size property tests
	// shrink it to 1/2/7 to flush out batch-boundary bugs.
	batchCap int
}

// touch charges a page access against the node's buffer pool, billing
// any miss to this execution's meter.
func (ex *execCtx) touch(pageID int64, sequential bool) {
	ex.node.pool.AccessTo(pageID, sequential, ex.meter)
}

// op is a vectorized volcano-style operator: open, a stream of next
// calls that each fill a caller-provided batch, close.
//
// Batch contract: the caller passes a Reset (empty) batch; the operator
// appends rows until the batch is full or its input is exhausted. A
// batch left empty after next returns signals end of stream. Operators
// must never return an empty batch before end of stream (a filter that
// matched nothing keeps pulling), and must tolerate next calls after
// end of stream by returning an empty batch again. Appended rows
// reference stable storage and stay valid after the batch is reused.
type op interface {
	open(ex *execCtx) error
	next(ex *execCtx, out *sqltypes.Batch) error
	close()
}

// childStream adapts a batch-producing child for operators that consume
// rows one at a time (filters, probes, materializing drains). The
// refill is per batch, so the per-row cost is a bounds check.
type childStream struct {
	buf *sqltypes.Batch
	pos int
}

func (cs *childStream) open(ex *execCtx) {
	if cs.buf == nil {
		if ex.batchCap > 0 {
			cs.buf = sqltypes.NewBatch(ex.batchCap)
		} else {
			cs.buf = sqltypes.GetBatch()
		}
	}
	cs.buf.Reset()
	cs.pos = 0
}

func (cs *childStream) close() {
	if cs.buf != nil {
		sqltypes.PutBatch(cs.buf)
		cs.buf = nil
	}
}

// nextRow returns the next row from src, refilling the internal batch
// as needed. A nil row signals end of stream.
func (cs *childStream) nextRow(src op, ex *execCtx) (sqltypes.Row, error) {
	for cs.pos >= cs.buf.Len() {
		cs.buf.Reset()
		cs.pos = 0
		if err := src.next(ex, cs.buf); err != nil {
			return nil, err
		}
		if cs.buf.Len() == 0 {
			return nil, nil
		}
	}
	r := cs.buf.Rows[cs.pos]
	cs.pos++
	return r, nil
}

// --- sequential scan ---

// seqScanOp reads every heap page in order, applying MVCC visibility and
// an optional filter, filling output batches directly from the pages.
// Every page access goes through the node's buffer pool with
// sequential-read cost. The scan holds no per-row state beyond the
// page/slot position, so a filtered scan runs allocation-free: the one
// evalCtx is reused across all rows.
type seqScanOp struct {
	rel    *storage.Relation
	filter *kernel // may be nil

	pages []*storage.Page
	pi    int
	slot  int32
	ec    evalCtx
}

func (s *seqScanOp) open(ex *execCtx) error {
	s.pages = s.rel.PageSnapshot()
	s.pi, s.slot = 0, 0
	s.ec = evalCtx{ex: ex}
	if s.pi < len(s.pages) {
		ex.touch(s.pages[0].ID, true)
	}
	return nil
}

func (s *seqScanOp) next(ex *execCtx, out *sqltypes.Batch) error {
	cfg := ex.meter.Config()
	for s.pi < len(s.pages) {
		p := s.pages[s.pi]
		n := int32(p.Count())
		for s.slot < n {
			if out.Full() {
				return nil
			}
			slot := s.slot
			s.slot++
			ex.meter.Charge(cfg.CPUTuple)
			if !p.Visible(slot, ex.snapshot) {
				continue
			}
			row := p.Row(slot)
			s.ec.row = row
			if keep, err := s.filter.keep(&s.ec); !keep {
				if err != nil {
					return err
				}
				continue
			}
			out.Append(row)
		}
		s.pi++
		s.slot = 0
		if s.pi < len(s.pages) {
			ex.touch(s.pages[s.pi].ID, true)
			ex.meter.MaybeFlush()
		}
	}
	return nil
}

func (s *seqScanOp) close() { s.pages = nil }

// --- index range scan ---

// indexScanOp walks a B-tree range, fetching heap rows in index order.
// Bounds are expressions so correlated parameters work as runtime keys
// (index nested-loop sub-queries). A scan over the clustered index is
// charged sequential IO — its heap accesses are physically contiguous —
// while secondary-index fetches pay random IO.
type indexScanOp struct {
	rel            *storage.Relation
	index          *storage.Index
	lo, hi         []*kernel // key prefix bounds; nil slice = open
	loIncl, hiIncl bool
	filter         *kernel

	rids   []storage.RowID
	pos    int
	lastPg int64
	ec     evalCtx
}

func (s *indexScanOp) open(ex *execCtx) error {
	s.ec = evalCtx{ex: ex}
	lo, err := evalRow(&s.ec, s.lo)
	if err != nil {
		return err
	}
	hi, err := evalRow(&s.ec, s.hi)
	if err != nil {
		return err
	}
	s.rids = s.rids[:0]
	s.pos = 0
	s.lastPg = -1
	cfg := ex.meter.Config()
	s.index.Tree.AscendRange(lo, hi, s.loIncl, s.hiIncl, func(e storage.Entry) bool {
		s.rids = append(s.rids, e.RID)
		return true
	})
	// Index traversal CPU cost (B-tree pages are assumed cached; heap
	// dominates, as on a warm PostgreSQL instance).
	ex.meter.Charge(time.Duration(len(s.rids)) * cfg.CPUOperator)
	return nil
}

func (s *indexScanOp) next(ex *execCtx, out *sqltypes.Batch) error {
	cfg := ex.meter.Config()
	for s.pos < len(s.rids) {
		if out.Full() {
			return nil
		}
		rid := s.rids[s.pos]
		s.pos++
		p := s.rel.PageOf(rid)
		if p == nil {
			continue
		}
		if p.ID != s.lastPg {
			ex.touch(p.ID, s.index.Clustered)
			s.lastPg = p.ID
			ex.meter.MaybeFlush()
		}
		ex.meter.Charge(cfg.CPUTuple)
		if !p.Visible(rid.Slot, ex.snapshot) {
			continue
		}
		row := p.Row(rid.Slot)
		s.ec.row = row
		if keep, err := s.filter.keep(&s.ec); !keep {
			if err != nil {
				return err
			}
			continue
		}
		out.Append(row)
	}
	return nil
}

func (s *indexScanOp) close() { s.rids = nil }

// evalRow evaluates a list of kernels into a fresh row (nil for a nil
// list: an open index bound).
func evalRow(ec *evalCtx, ks []*kernel) (sqltypes.Row, error) {
	if ks == nil {
		return nil, nil
	}
	row := make(sqltypes.Row, len(ks))
	for i, k := range ks {
		v, err := k.value(ec)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// --- filter ---

type filterOp struct {
	child op
	cond  *kernel

	cs childStream
	ec evalCtx
}

func (f *filterOp) open(ex *execCtx) error {
	f.ec = evalCtx{ex: ex}
	f.cs.open(ex)
	return f.child.open(ex)
}

func (f *filterOp) next(ex *execCtx, out *sqltypes.Batch) error {
	for !out.Full() {
		row, err := f.cs.nextRow(f.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		f.ec.row = row
		keep, err := f.cond.keep(&f.ec)
		if err != nil {
			return err
		}
		if keep {
			out.Append(row)
		}
	}
	return nil
}

func (f *filterOp) close() {
	f.child.close()
	f.cs.close()
}

// --- hash join ---

// hashJoinOp equi-joins probe (streamed) against build (materialized into
// a hash table). Output tuples are probe columns followed by build
// columns. Only inner joins exist in the dialect.
type hashJoinOp struct {
	probe, build         op
	probeKeys, buildKeys []*kernel

	table   map[uint64][]sqltypes.Row // hash -> build rows
	keysOf  map[uint64][]sqltypes.Row // hash -> build keys, parallel to table
	matches []sqltypes.Row            // pending matches for current probe row
	current sqltypes.Row
	pkey    sqltypes.Row // probe-key scratch, reused across probe rows
	cs      childStream
	ec      evalCtx
}

func (j *hashJoinOp) open(ex *execCtx) error {
	if err := j.build.open(ex); err != nil {
		return err
	}
	defer j.build.close()
	j.ec = evalCtx{ex: ex}
	j.table = map[uint64][]sqltypes.Row{}
	j.keysOf = map[uint64][]sqltypes.Row{}
	j.matches = nil
	j.current = nil
	cfg := ex.meter.Config()
	var bs childStream
	bs.open(ex)
	defer bs.close()
	for {
		row, err := bs.nextRow(j.build, ex)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key, null, err := evalKeys(&j.ec, j.buildKeys, row, make(sqltypes.Row, len(j.buildKeys)))
		if err != nil {
			return err
		}
		if null {
			continue // NULL keys never join
		}
		h := sqltypes.HashRow(key)
		j.table[h] = append(j.table[h], row)
		j.keysOf[h] = append(j.keysOf[h], key)
		ex.meter.Charge(cfg.CPUOperator)
	}
	j.cs.open(ex)
	return j.probe.open(ex)
}

// evalKeys evaluates join keys over row into out (len(keys) long),
// reporting a NULL key, which never joins.
func evalKeys(ec *evalCtx, keys []*kernel, row, out sqltypes.Row) (sqltypes.Row, bool, error) {
	ec.row = row
	for i, k := range keys {
		v, err := k.value(ec)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, true, nil
		}
		out[i] = v
	}
	return out, false, nil
}

func (j *hashJoinOp) next(ex *execCtx, out *sqltypes.Batch) error {
	cfg := ex.meter.Config()
	for !out.Full() {
		if len(j.matches) > 0 {
			b := j.matches[0]
			j.matches = j.matches[1:]
			joined := make(sqltypes.Row, 0, len(j.current)+len(b))
			joined = append(joined, j.current...)
			joined = append(joined, b...)
			out.Append(joined)
			continue
		}
		row, err := j.cs.nextRow(j.probe, ex)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		ex.meter.Charge(cfg.CPUOperator)
		if j.pkey == nil {
			j.pkey = make(sqltypes.Row, len(j.probeKeys))
		}
		key, null, err := evalKeys(&j.ec, j.probeKeys, row, j.pkey)
		if err != nil {
			return err
		}
		if null {
			continue
		}
		h := sqltypes.HashRow(key)
		bucket := j.table[h]
		if len(bucket) == 0 {
			continue
		}
		bkeys := j.keysOf[h]
		j.current = row
		j.matches = j.matches[:0]
		for i, b := range bucket {
			if sqltypes.RowsEqual(bkeys[i], key) {
				j.matches = append(j.matches, b)
			}
		}
	}
	return nil
}

func (j *hashJoinOp) close() {
	j.probe.close()
	j.cs.close()
	j.table = nil
	j.keysOf = nil
}

// --- nested-loop join (cartesian with optional condition) ---

type nestedLoopOp struct {
	outer, inner op
	cond         *kernel // may be nil (pure cross product)

	innerRows []sqltypes.Row
	cur       sqltypes.Row
	ii        int
	scratch   sqltypes.Row
	cs        childStream
	ec        evalCtx
}

func (n *nestedLoopOp) open(ex *execCtx) error {
	if err := n.inner.open(ex); err != nil {
		return err
	}
	defer n.inner.close()
	n.ec = evalCtx{ex: ex}
	n.innerRows = n.innerRows[:0]
	var is childStream
	is.open(ex)
	defer is.close()
	for {
		row, err := is.nextRow(n.inner, ex)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		n.innerRows = append(n.innerRows, row)
	}
	n.cur = nil
	n.ii = 0
	n.cs.open(ex)
	return n.outer.open(ex)
}

func (n *nestedLoopOp) next(ex *execCtx, out *sqltypes.Batch) error {
	for !out.Full() {
		if n.cur == nil {
			row, err := n.cs.nextRow(n.outer, ex)
			if err != nil {
				return err
			}
			if row == nil {
				return nil
			}
			n.cur = row
			n.ii = 0
		}
		for n.ii < len(n.innerRows) && !out.Full() {
			b := n.innerRows[n.ii]
			n.ii++
			n.scratch = append(append(n.scratch[:0], n.cur...), b...)
			n.ec.row = n.scratch
			if keep, err := n.cond.keep(&n.ec); !keep {
				if err != nil {
					return err
				}
				continue
			}
			out.Append(n.scratch.Clone())
		}
		if n.ii >= len(n.innerRows) {
			n.cur = nil
		}
	}
	return nil
}

func (n *nestedLoopOp) close() {
	n.outer.close()
	n.cs.close()
	n.innerRows = nil
	n.scratch = nil
}

// --- projection ---

type projectOp struct {
	child op
	items []*kernel

	cs childStream
	ec evalCtx
}

func (p *projectOp) open(ex *execCtx) error {
	p.ec = evalCtx{ex: ex}
	p.cs.open(ex)
	return p.child.open(ex)
}

func (p *projectOp) next(ex *execCtx, out *sqltypes.Batch) error {
	for !out.Full() {
		row, err := p.cs.nextRow(p.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		p.ec.row = row
		projected, err := evalRow(&p.ec, p.items)
		if err != nil {
			return err
		}
		out.Append(projected)
	}
	return nil
}

func (p *projectOp) close() {
	p.child.close()
	p.cs.close()
}

// --- aggregation ---

// aggDef is one aggregate computation. fn is sum/count/avg/min/max; a nil
// arg means count(*).
type aggDef struct {
	fn       string
	arg      *kernel
	distinct bool
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max sqltypes.Value
	seen     map[uint64][]sqltypes.Value // for DISTINCT
}

func (st *aggState) add(def *aggDef, v sqltypes.Value) {
	if def.arg != nil && v.IsNull() {
		return // aggregates skip NULL inputs
	}
	if def.distinct {
		if st.seen == nil {
			st.seen = map[uint64][]sqltypes.Value{}
		}
		h := v.Hash()
		for _, prev := range st.seen[h] {
			if sqltypes.Compare(prev, v) == 0 {
				return
			}
		}
		st.seen[h] = append(st.seen[h], v)
	}
	st.count++
	switch def.fn {
	case "sum", "avg":
		if v.K == sqltypes.KindFloat {
			st.isFloat = true
			st.sumF += v.F
		} else {
			st.sumI += v.I
		}
	case "min":
		if st.min.IsNull() || sqltypes.Compare(v, st.min) < 0 {
			st.min = v
		}
	case "max":
		if st.max.IsNull() || sqltypes.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
}

// merge folds another partial state into st. Parallel workers accumulate
// per-morsel partials which the coordinator merges in morsel-index order,
// so float sums are combined in one deterministic order regardless of
// which worker ran which morsel. DISTINCT aggregates are never
// parallelized (the planner rejects them), so seen maps don't merge.
func (st *aggState) merge(def *aggDef, other *aggState) {
	st.count += other.count
	switch def.fn {
	case "sum", "avg":
		st.sumI += other.sumI
		if other.isFloat {
			st.isFloat = true
			st.sumF += other.sumF
		}
	case "min":
		if !other.min.IsNull() && (st.min.IsNull() || sqltypes.Compare(other.min, st.min) < 0) {
			st.min = other.min
		}
	case "max":
		if !other.max.IsNull() && (st.max.IsNull() || sqltypes.Compare(other.max, st.max) > 0) {
			st.max = other.max
		}
	}
}

func (st *aggState) result(def *aggDef) sqltypes.Value {
	switch def.fn {
	case "count":
		return sqltypes.NewInt(st.count)
	case "sum":
		if st.count == 0 {
			return sqltypes.Null()
		}
		if st.isFloat {
			return sqltypes.NewFloat(st.sumF + float64(st.sumI))
		}
		return sqltypes.NewInt(st.sumI)
	case "avg":
		if st.count == 0 {
			return sqltypes.Null()
		}
		return sqltypes.NewFloat((st.sumF + float64(st.sumI)) / float64(st.count))
	case "min":
		return st.min
	case "max":
		return st.max
	}
	return sqltypes.Null()
}

// aggOp computes grouped aggregates. Output tuples are the group keys
// followed by aggregate results, in definition order. With no GROUP BY it
// emits exactly one row (SQL scalar-aggregate semantics). Group keys are
// evaluated into a reused scratch row and only cloned when they start a
// new group, so the ungrouped Q1/Q6 paths accumulate allocation-free.
type aggOp struct {
	child  op
	groups []*kernel
	aggs   []*aggDef

	out    []sqltypes.Row
	pos    int
	keybuf sqltypes.Row
}

type aggGroup struct {
	keys   sqltypes.Row
	states []aggState
}

func (a *aggOp) open(ex *execCtx) error {
	if err := a.child.open(ex); err != nil {
		return err
	}
	defer a.child.close()
	cfg := ex.meter.Config()
	buckets := map[uint64][]*aggGroup{}
	var order []*aggGroup
	ec := evalCtx{ex: ex}
	var cs childStream
	cs.open(ex)
	defer cs.close()
	if a.keybuf == nil {
		a.keybuf = make(sqltypes.Row, len(a.groups))
	}
	for {
		row, err := cs.nextRow(a.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		ec.row = row
		keys := a.keybuf
		for i, g := range a.groups {
			v, err := g.value(&ec)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		h := sqltypes.HashRow(keys)
		var grp *aggGroup
		for _, g := range buckets[h] {
			if sqltypes.RowsEqual(g.keys, keys) {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &aggGroup{keys: keys.Clone(), states: make([]aggState, len(a.aggs))}
			buckets[h] = append(buckets[h], grp)
			order = append(order, grp)
		}
		for i, def := range a.aggs {
			var v sqltypes.Value
			if def.arg != nil {
				v, err = def.arg.value(&ec)
				if err != nil {
					return err
				}
			}
			grp.states[i].add(def, v)
			ex.meter.Charge(cfg.CPUOperator)
		}
		ex.meter.MaybeFlush()
	}
	if len(a.groups) == 0 && len(order) == 0 {
		order = append(order, &aggGroup{keys: sqltypes.Row{}, states: make([]aggState, len(a.aggs))})
	}
	a.out = a.out[:0]
	for _, g := range order {
		row := make(sqltypes.Row, 0, len(g.keys)+len(a.aggs))
		row = append(row, g.keys...)
		for i, def := range a.aggs {
			row = append(row, g.states[i].result(def))
		}
		a.out = append(a.out, row)
	}
	a.pos = 0
	return nil
}

func (a *aggOp) next(_ *execCtx, out *sqltypes.Batch) error {
	for a.pos < len(a.out) && !out.Full() {
		out.Append(a.out[a.pos])
		a.pos++
	}
	return nil
}

func (a *aggOp) close() { a.out = nil }

// --- sort ---

type sortKey struct {
	expr *kernel
	desc bool
}

type sortOp struct {
	child op
	keys  []sortKey

	rows []sqltypes.Row
	pos  int
}

func (s *sortOp) open(ex *execCtx) error {
	if err := s.child.open(ex); err != nil {
		return err
	}
	defer s.child.close()
	s.rows = s.rows[:0]
	type keyed struct {
		row  sqltypes.Row
		keys sqltypes.Row
	}
	var all []keyed
	ec := evalCtx{ex: ex}
	var cs childStream
	cs.open(ex)
	defer cs.close()
	for {
		row, err := cs.nextRow(s.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		ks := make(sqltypes.Row, len(s.keys))
		ec.row = row
		for i, k := range s.keys {
			v, err := k.expr.value(&ec)
			if err != nil {
				return err
			}
			ks[i] = v
		}
		all = append(all, keyed{row: row, keys: ks})
	}
	sort.SliceStable(all, func(i, j int) bool {
		for k := range s.keys {
			c := sqltypes.Compare(all[i].keys[k], all[j].keys[k])
			if s.keys[k].desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	for _, kr := range all {
		s.rows = append(s.rows, kr.row)
	}
	s.pos = 0
	return nil
}

func (s *sortOp) next(_ *execCtx, out *sqltypes.Batch) error {
	for s.pos < len(s.rows) && !out.Full() {
		out.Append(s.rows[s.pos])
		s.pos++
	}
	return nil
}

func (s *sortOp) close() { s.rows = nil }

// --- limit ---

type limitOp struct {
	child op
	n     int64
	seen  int64
}

func (l *limitOp) open(ex *execCtx) error {
	l.seen = 0
	return l.child.open(ex)
}

func (l *limitOp) next(ex *execCtx, out *sqltypes.Batch) error {
	if l.seen >= l.n {
		return nil
	}
	if err := l.child.next(ex, out); err != nil {
		return err
	}
	if rem := l.n - l.seen; int64(out.Len()) > rem {
		out.Truncate(int(rem))
	}
	l.seen += int64(out.Len())
	return nil
}

func (l *limitOp) close() { l.child.close() }

// --- distinct ---

type distinctOp struct {
	child op
	seen  map[uint64][]sqltypes.Row

	cs childStream
}

func (d *distinctOp) open(ex *execCtx) error {
	d.seen = map[uint64][]sqltypes.Row{}
	d.cs.open(ex)
	return d.child.open(ex)
}

func (d *distinctOp) next(ex *execCtx, out *sqltypes.Batch) error {
	for !out.Full() {
		row, err := d.cs.nextRow(d.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		h := sqltypes.HashRow(row)
		dup := false
		for _, prev := range d.seen[h] {
			if sqltypes.RowsEqual(prev, row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		d.seen[h] = append(d.seen[h], row)
		out.Append(row)
	}
	return nil
}

func (d *distinctOp) close() {
	d.child.close()
	d.cs.close()
	d.seen = nil
}
