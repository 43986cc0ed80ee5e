package main

import (
	"context"
	dbsql "database/sql"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"apuama"
	_ "apuama/internal/driver" // registers the "apuama" database/sql driver
	"apuama/internal/proto"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
	"apuama/internal/wire"
)

// Op classes of the oltp-wire mix.
const (
	opCustomer = iota // 60%: customer key lookup, passes through
	opOrder           // 15%: orders key lookup with a column list, SVP-eligible
	opRange           // 25%: select * over lineitem for rangeKeys order keys
)

var opClasses = []string{"customer", "orders", "range"}

const (
	rangeKeys  = 400
	orderCols  = "o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate"
	wireConns  = 2
	lookupMost = 60
	orderMost  = 75
)

// oltpOp is one generated statement.
type oltpOp struct {
	class int
	key   int64 // looked-up key, or first order key of a range
	text  string
}

// genOp draws the next op of the mix from r.
func genOp(r *rand.Rand) oltpOp {
	card := tpch.Cardinalities(sf)
	switch x := r.Intn(100); {
	case x < lookupMost:
		k := 1 + r.Int63n(int64(card["customer"]))
		return oltpOp{opCustomer, k, fmt.Sprintf("select * from customer where c_custkey = %d", k)}
	case x < orderMost:
		k := 1 + r.Int63n(int64(card["orders"]))
		return oltpOp{opOrder, k, fmt.Sprintf("select %s from orders where o_orderkey = %d", orderCols, k)}
	default:
		k := 1 + r.Int63n(int64(card["orders"]-rangeKeys+1))
		return oltpOp{opRange, k, fmt.Sprintf("select * from lineitem where l_orderkey >= %d and l_orderkey < %d", k, k+rangeKeys)}
	}
}

// timingHandler is the wire.Handler the traced run serves: the cluster,
// with each query's time inside the handler recorded as a span.
type timingHandler struct {
	c   *apuama.Cluster
	rec *recorder
}

func (h *timingHandler) Query(text string) (*apuama.Result, error) {
	return h.QueryContext(context.Background(), text)
}

func (h *timingHandler) QueryContext(ctx context.Context, text string) (*apuama.Result, error) {
	t0 := time.Now()
	res, err := h.c.QueryContext(ctx, text)
	h.rec.add(span{Parent: -1, Op: -1, Name: "handler", SQL: text, Start: t0, End: time.Now()})
	return res, err
}

func (h *timingHandler) Exec(text string) (int64, error) { return h.c.Exec(text) }

// oltpCluster is one set-up cluster behind a loopback wire server.
type oltpCluster struct {
	c     *apuama.Cluster
	srv   *proto.Server
	db    *dbsql.DB
	conns []*dbsql.Conn
	load  time.Duration
}

func (oc *oltpCluster) close() {
	for _, cn := range oc.conns {
		cn.Close()
	}
	if oc.db != nil {
		oc.db.Close()
	}
	if oc.srv != nil {
		oc.srv.Close()
	}
	oc.c.Close()
}

// setupOLTP opens and loads a cluster, serves it on loopback the way
// apuamad does, opens the client connections at the driver's default
// DSN and runs one untimed op of each class.
func setupOLTP(seed int64, rec *recorder) (*oltpCluster, error) {
	c, err := openCluster(rec != nil)
	if err != nil {
		return nil, err
	}
	oc := &oltpCluster{c: c}
	t0 := time.Now()
	if err := c.LoadTPCH(sf, seed); err != nil {
		oc.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	oc.load = time.Since(t0)
	var h wire.Handler = c
	if rec != nil {
		h = &timingHandler{c: c, rec: rec}
	}
	if oc.srv, err = proto.Serve("127.0.0.1:0", h, proto.Options{Metrics: c.Metrics()}); err != nil {
		oc.close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	c.AttachWireServer(oc.srv)
	if oc.db, err = dbsql.Open("apuama", oc.srv.Addr()); err != nil {
		oc.close()
		return nil, err
	}
	n := min(wireConns, runtime.NumCPU())
	oc.db.SetMaxOpenConns(n)
	oc.db.SetMaxIdleConns(n)
	for i := 0; i < n; i++ {
		cn, err := oc.db.Conn(context.Background())
		if err != nil {
			oc.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
		oc.conns = append(oc.conns, cn)
	}
	r := rand.New(rand.NewSource(seed + 1))
	for class := opCustomer; class <= opRange; {
		op := genOp(r)
		if op.class != class {
			continue
		}
		if _, _, err := doOp(oc.conns[0], op); err != nil {
			oc.close()
			return nil, fmt.Errorf("warm-up %q: %w", op.text, err)
		}
		class++
	}
	return oc, nil
}

// doOp runs one statement through database/sql and reads every row. A
// lookup's rows are returned for the answer check; a range is counted.
func doOp(cn *dbsql.Conn, op oltpOp) (rows [][]any, n int, err error) {
	rs, err := cn.QueryContext(context.Background(), op.text)
	if err != nil {
		return nil, 0, err
	}
	defer rs.Close()
	cols, err := rs.Columns()
	if err != nil {
		return nil, 0, err
	}
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rs.Next() {
		if err := rs.Scan(ptrs...); err != nil {
			return nil, n, err
		}
		n++
		if op.class != opRange {
			rows = append(rows, append([]any(nil), vals...))
		}
	}
	return rows, n, rs.Err()
}

// oltpResult is one completed op, kept for the answer check.
type oltpResult struct {
	op   oltpOp
	rows [][]any
	n    int
}

// oltpRun is what one timed phase of oltp-wire observed.
type oltpRun struct {
	lat       [][]float64 // per op class, ms
	all       []float64   // every op, ms
	gaps      []float64   // ms from an op's completion to the same client's next issue
	done      []oltpResult
	doneAt    []time.Duration // completion offsets of successful ops
	attempted int64
	errors    int64
	rows      int64
}

// runOLTPPhase drives one closed-loop client per connection for d.
func runOLTPPhase(oc *oltpCluster, seed int64, d time.Duration, rec *recorder) *oltpRun {
	runtime.GC() // every timed phase starts from the same collector state
	start := time.Now()
	stop := start.Add(d)
	runs := make([]oltpRun, len(oc.conns))
	var wg sync.WaitGroup
	for ci := range oc.conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			run := &runs[ci]
			run.lat = make([][]float64, len(opClasses))
			r := rand.New(rand.NewSource(seed*7919 + int64(ci)))
			prevDone := start
			for time.Now().Before(stop) {
				op := genOp(r)
				t0 := time.Now()
				rows, n, err := doOp(oc.conns[ci], op)
				end := time.Now()
				dur := end.Sub(t0)
				run.gaps = append(run.gaps, ms(t0.Sub(prevDone)))
				prevDone = end
				run.attempted++
				if rec != nil {
					rec.add(span{Parent: -1, Op: int(run.attempted)*len(oc.conns) + ci, Name: "op", SQL: op.text, Start: t0, End: end})
				}
				if err != nil {
					run.errors++
					continue
				}
				run.rows += int64(n)
				run.lat[op.class] = append(run.lat[op.class], ms(dur))
				run.all = append(run.all, ms(dur))
				run.done = append(run.done, oltpResult{op: op, rows: rows, n: n})
				run.doneAt = append(run.doneAt, end.Sub(start))
			}
		}(ci)
	}
	wg.Wait()
	all := &oltpRun{lat: make([][]float64, len(opClasses))}
	for _, r := range runs {
		for c := range opClasses {
			all.lat[c] = append(all.lat[c], r.lat[c]...)
		}
		all.all = append(all.all, r.all...)
		all.gaps = append(all.gaps, r.gaps...)
		all.done = append(all.done, r.done...)
		all.doneAt = append(all.doneAt, r.doneAt...)
		all.attempted += r.attempted
		all.errors += r.errors
		all.rows += r.rows
	}
	return all
}

// checkOLTP runs outside the timed phase against references read from
// one node: each lookup returned exactly its key's row, and each range
// its reference row count.
func checkOLTP(oc *oltpCluster, run *oltpRun, out *outcome) error {
	out.attempted += run.attempted
	out.failed += run.errors
	if run.errors > 0 {
		out.fail(0, "%d ops failed", run.errors)
	}
	_, nodesList, _, _ := oc.c.Internals()
	nd := nodesList[0]
	byKey := func(text string) (map[int64]sqltypes.Row, error) {
		res, err := nd.Query(text)
		if err != nil {
			return nil, err
		}
		m := make(map[int64]sqltypes.Row, len(res.Rows))
		for _, row := range res.Rows {
			m[row[0].I] = row
		}
		return m, nil
	}
	customers, err := byKey("select * from customer")
	if err != nil {
		return fmt.Errorf("customer reference: %w", err)
	}
	orders, err := byKey("select " + orderCols + " from orders")
	if err != nil {
		return fmt.Errorf("orders reference: %w", err)
	}
	items, err := nd.Query("select l_orderkey from lineitem")
	if err != nil {
		return fmt.Errorf("lineitem reference: %w", err)
	}
	perOrder := map[int64]int{}
	for _, row := range items.Rows {
		perOrder[row[0].I]++
	}
	for _, d := range run.done {
		switch d.op.class {
		case opRange:
			want := 0
			for k := d.op.key; k < d.op.key+rangeKeys; k++ {
				want += perOrder[k]
			}
			if d.n != want {
				out.fail(1, "range %d: %d rows, want %d", d.op.key, d.n, want)
			}
		default:
			ref := customers
			if d.op.class == opOrder {
				ref = orders
			}
			if err := matchLookup(d.rows, ref[d.op.key]); err != nil {
				out.fail(1, "lookup %q: %v", d.op.text, err)
			}
		}
	}
	return nil
}

func matchLookup(rows [][]any, want sqltypes.Row) error {
	if want == nil || len(rows) != 1 {
		return fmt.Errorf("%d rows, want exactly 1", len(rows))
	}
	if len(rows[0]) != len(want) {
		return fmt.Errorf("width %d, want %d", len(rows[0]), len(want))
	}
	for i, v := range want {
		if !driverValueMatches(rows[0][i], v) {
			return fmt.Errorf("column %d: %v, want %v", i, rows[0][i], v)
		}
	}
	return nil
}

// runOLTP is the oltp-wire workload.
func runOLTP(o opts) (*outcome, error) {
	if o.trace {
		return traceOLTP(o)
	}
	out := newOutcome()
	heap := startHeapPeak()
	oc, setupSecs, err := setupRepeated(setups,
		func() (*oltpCluster, error) { return setupOLTP(o.seed, nil) },
		(*oltpCluster).close)
	if err != nil {
		heap.finish()
		return nil, err
	}
	defer oc.close()
	run := runOLTPPhase(oc, o.seed, o.seconds, nil)
	out.set("heap_mb", heap.finish(), "MiB")
	if err := checkOLTP(oc, run, out); err != nil {
		return nil, err
	}
	out.set("setup_s", median(setupSecs), "s")
	out.set("ops_per_s", medianRate(run.doneAt, o.seconds), "1/s")
	byClass := map[string][]float64{}
	for c, name := range opClasses {
		byClass[name] = run.lat[c]
	}
	g, err := geomeanOfMedians(opClasses, byClass)
	if err != nil {
		return nil, fmt.Errorf("geomean_ms: %w", err)
	}
	out.set("geomean_ms", g, "ms")
	out.samples["geomean_ms"] = len(run.all)
	if err := out.pct("p90_ms", run.all, 0.90, "ms"); err != nil {
		return nil, err
	}
	return out, nil
}

// traceOLTP is the traced run of oltp-wire (see traceOLAP).
func traceOLTP(o opts) (*outcome, error) {
	half := o.seconds / 2
	base, err := setupOLTP(o.seed, nil)
	if err != nil {
		return nil, err
	}
	baseRun := runOLTPPhase(base, o.seed, half, nil)
	base.close()
	runtime.GC()

	rec := &recorder{}
	oc, err := setupOLTP(o.seed, rec)
	if err != nil {
		return nil, err
	}
	defer oc.close()
	before := snapCounters(oc.c, oc.srv)
	run := runOLTPPhase(oc, o.seed, half, rec)
	after := snapCounters(oc.c, oc.srv)
	rec.link("handler", "op")
	rec.joinTrees("handler", oc.c.SlowLog())

	r := rand.New(rand.NewSource(o.seed + 4))
	var texts, svpTexts []string
	for _, i := range r.Perm(len(run.done))[:min(256, len(run.done))] {
		op := run.done[i].op
		texts = append(texts, op.text)
		if op.class == opOrder && len(svpTexts) < 32 {
			svpTexts = append(svpTexts, op.text)
		}
	}
	out := newOutcome()
	st := layerMetrics(tracedPhase{
		c: oc.c, before: before, after: after,
		queries: run.attempted, texts: texts, svpTexts: svpTexts, rec: rec,
		loads:       []float64{base.load.Seconds(), oc.load.Seconds()},
		thrUntraced: medianRate(baseRun.doneAt, half),
		thrTraced:   medianRate(run.doneAt, half),
		seed:        o.seed,
	}, out)
	out.set("proto.overhead_us", st.overheadUS, "us")
	out.set("proto.bytes_per_row", ratio(float64(after.wire.BytesOut-before.wire.BytesOut), float64(run.rows)), "B")
	out.set("bench.gen_late_ms", mean(run.gaps), "ms")
	if err := checkOLTP(oc, run, out); err != nil {
		return nil, err
	}
	execProbe(oc.c, o.seed, out)
	return out, nil
}
