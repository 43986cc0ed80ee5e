package main

import (
	"context"
	dbsql "database/sql"
	"fmt"
	"math"
	"math/rand"
	"time"

	"apuama"
	"apuama/internal/core"
	"apuama/internal/engine"
	"apuama/internal/obs"
	"apuama/internal/proto"
	"apuama/internal/sql"
	"apuama/internal/tpch"
)

// counterSnap reads the program's existing counters through its public
// accessors; the traced run takes one before and one after its timed
// phase and reports per-op deltas.
type counterSnap struct {
	st         apuama.Stats
	reads      []int64 // controller reads per backend
	morsels    int64
	segPruned  int64
	segScanned int64
	hits, miss int64
	virtual    time.Duration // every node meter plus both network meters
	hists      map[string]obs.HistSnapshot
	wire       proto.Stats
	rt         rtSnap
}

var layerHists = []string{obs.MDispatch, obs.MGather, obs.MGatherFirstBatch, obs.MSubqueryDuration, obs.MCompose}

func snapCounters(c *apuama.Cluster, srv *proto.Server) counterSnap {
	_, nodesList, eng, ctl := c.Internals()
	s := counterSnap{st: c.Stats(), reads: ctl.Stats(), hists: map[string]obs.HistSnapshot{}}
	for _, nd := range nodesList {
		_, m, _ := nd.ParallelStats()
		_, pruned, scanned := nd.SegmentStats()
		h, miss := nd.Pool().Stats()
		s.morsels += m
		s.segPruned += pruned
		s.segScanned += scanned
		s.hits += h
		s.miss += miss
		s.virtual += nd.Meter().Virtual()
	}
	s.virtual += eng.NetMeter().Virtual() + ctl.NetMeter().Virtual()
	for _, name := range layerHists {
		s.hists[name] = c.Metrics().HistogramSnapshot(name)
	}
	if srv != nil {
		s.wire = srv.Stats()
	}
	s.rt = readRuntime()
	return s
}

// histMeanMs is the mean of a histogram's observations between two
// snapshots, in milliseconds.
func histMeanMs(a, b counterSnap, name string) float64 {
	n := b.hists[name].Count - a.hists[name].Count
	return ratio(ms(b.hists[name].Sum-a.hists[name].Sum), float64(n))
}

// tracedPhase is what the layer computation needs from a traced run.
type tracedPhase struct {
	c             *apuama.Cluster
	before, after counterSnap
	queries       int64 // reads completed by the cluster
	writes        int64
	texts         []string // the run's statement texts, for parse/plan timing
	svpTexts      []string // sampled SVP-eligible selects
	rec           *recorder
	loads         []float64 // TPC-H load seconds of each setup
	thrUntraced   float64
	thrTraced     float64
	seed          int64
}

// directTimings is how many times each sampled text is parsed and
// planned; both are microsecond calls, so one timing is mostly noise.
const directTimings = 5

// layerMetrics sets every per-layer metric that applies to all three
// workloads and returns the span statistics; workload-specific metrics
// are set by the caller.
func layerMetrics(p tracedPhase, out *outcome) opSpanStats {
	a, b := p.before, p.after
	svp := float64(b.st.SVPQueries - a.st.SVPQueries)
	pass := float64(b.st.PassThrough - a.st.PassThrough)
	queries := float64(p.queries)
	ops := float64(p.queries + p.writes)

	parseUS, planUS := timeParsePlan(p.texts)
	out.set("sql.parse_us", parseUS, "us")
	out.set("core.plan_us", planUS, "us")
	parts := int(math.Round(ratio(float64(b.st.SubQueries-a.st.SubQueries), svp)))
	svpMs, partMs := timeSVP(p.c, p.svpTexts, max(parts, 1), p.seed)
	out.set("core.svp_ms", svpMs, "ms")
	out.set("engine.partition_exec_ms", partMs, "ms")

	out.set("core.subqueries_per_query", ratio(float64(b.st.SubQueries-a.st.SubQueries), svp), "count")
	out.set("core.steals_per_query", ratio(float64(b.st.AVPSteals-a.st.AVPSteals), svp), "count")
	out.set("core.passthrough_ratio", ratio(pass, svp+pass), "ratio")
	out.set("core.barrier_ms", ratio(ms(b.st.BarrierWaits-a.st.BarrierWaits), svp), "ms")
	out.set("core.blocked_write_ratio", ratio(float64(b.st.BlockedWrites-a.st.BlockedWrites), float64(p.writes*nodes)), "ratio")
	out.set("core.dispatch_ms", histMeanMs(a, b, obs.MDispatch), "ms")
	out.set("core.gather_ms", histMeanMs(a, b, obs.MGather), "ms")
	out.set("core.first_batch_ms", histMeanMs(a, b, obs.MGatherFirstBatch), "ms")
	out.set("core.subquery_ms", histMeanMs(a, b, obs.MSubqueryDuration), "ms")
	out.set("memdb.compose_ms", histMeanMs(a, b, obs.MCompose), "ms")
	out.set("memdb.composed_rows_per_query", ratio(float64(b.st.ComposedRows-a.st.ComposedRows), svp), "count")

	out.set("engine.morsels_per_query", ratio(float64(b.morsels-a.morsels), queries), "count")
	out.set("engine.modeled_ms_per_op", ratio(ms(b.virtual-a.virtual), ops), "ms")
	hits, miss := float64(b.hits-a.hits), float64(b.miss-a.miss)
	out.set("storage.buffer_hit_ratio", ratio(hits, hits+miss), "ratio")
	pruned, scanned := float64(b.segPruned-a.segPruned), float64(b.segScanned-a.segScanned)
	out.set("storage.segments_scanned_per_query", ratio(scanned, queries), "count")
	out.set("storage.segments_pruned_ratio", ratio(pruned, pruned+scanned), "ratio")

	var maxReads, sumReads float64
	for i := range b.reads {
		d := float64(b.reads[i] - a.reads[i])
		maxReads = max(maxReads, d)
		sumReads += d
	}
	out.set("cluster.read_imbalance", ratio(maxReads, sumReads/float64(len(b.reads))), "ratio")
	out.set("tpch.load_s", median(p.loads), "s")

	out.set("runtime.cpu_ms_per_op", ratio(ms(b.rt.cpu-a.rt.cpu), ops), "ms")
	out.set("runtime.allocs_per_op", ratio(float64(b.rt.allocs-a.rt.allocs), ops), "count")
	out.set("runtime.gc_cpu_pct", 100*ratio(b.rt.gcCPU-a.rt.gcCPU, b.rt.totalCPU-a.rt.totalCPU), "%")
	out.set("runtime.sched_p99_ms", schedP99(a.rt, b.rt), "ms")

	out.set("bench.trace_overhead_pct", 100*ratio(p.thrUntraced-p.thrTraced, p.thrUntraced), "%")
	st := spanStats(p.rec)
	out.set("cluster.route_us", st.routeUS, "us")
	out.set("bench.span_coverage_pct", st.coveragePct, "%")
	out.spans, _ = p.rec.snapshot()
	return st
}

// timeParsePlan times sql.Parse on each text and core.PlanSVP on each
// select, returning the mean of each in microseconds.
func timeParsePlan(texts []string) (parseUS, planUS float64) {
	cat := core.TPCHCatalog()
	var parse, plan []float64
	for _, text := range texts {
		for k := 0; k < directTimings; k++ {
			t0 := time.Now()
			st, err := sql.Parse(text)
			parse = append(parse, us(time.Since(t0)))
			sel, ok := st.(*sql.SelectStmt)
			if err != nil || !ok {
				continue
			}
			t0 = time.Now()
			_, _ = core.PlanSVP(sel, cat) // ineligible statements are timed too: pass-through pays for the attempt
			plan = append(plan, us(time.Since(t0)))
		}
	}
	return mean(parse), mean(plan)
}

// timeSVP runs each sampled select through Engine.RunSVP, and one of its
// parts partitions through Node.QueryStmtAt on the node that partition
// would go to, returning the mean of each in milliseconds.
func timeSVP(c *apuama.Cluster, texts []string, parts int, seed int64) (svpMs, partMs float64) {
	db, nodesList, eng, _ := c.Internals()
	cat := core.TPCHCatalog()
	r := rand.New(rand.NewSource(seed + 3))
	var svp, part []float64
	for _, text := range texts {
		st, err := sql.Parse(text)
		sel, ok := st.(*sql.SelectStmt)
		if err != nil || !ok {
			continue
		}
		t0 := time.Now()
		_, err = eng.RunSVP(context.Background(), sel)
		if err != nil {
			continue
		}
		svp = append(svp, ms(time.Since(t0)))

		rw, err := core.PlanSVP(sel, cat)
		if err != nil {
			continue
		}
		lo, hi, err := cat.KeyDomain(db, rw.Table)
		if err != nil {
			continue
		}
		i := r.Intn(parts)
		nd := nodesList[i%len(nodesList)]
		sub := rw.SubQuery(i, parts, lo, hi)
		t0 = time.Now()
		if _, err := nd.QueryStmtAt(sub, nd.Watermark(), engine.QueryOpts{ForceIndexScan: true}); err == nil {
			part = append(part, ms(time.Since(t0)))
		}
	}
	return mean(svp), mean(part)
}

// opSpanStats are the span-derived per-layer numbers.
type opSpanStats struct {
	routeUS     float64 // self time of the facade (or handler) and the query root
	coveragePct float64 // share of op time the program's phase spans cover
	overheadUS  float64 // op time outside the handler (wire ops only)
}

// spanStats walks every recorded op: op → [handler →] query → phases.
func spanStats(rec *recorder) opSpanStats {
	spans, kids := rec.snapshot()
	child := func(id int, name string) int {
		for _, k := range kids[id] {
			if spans[k].Name == name {
				return k
			}
		}
		return -1
	}
	var route, overhead []float64
	var opTime, covered time.Duration
	var st opSpanStats
	for _, s := range spans {
		if s.Name != "op" {
			continue
		}
		opTime += s.dur()
		outer := s.ID
		if h := child(s.ID, "handler"); h >= 0 {
			outer = h
			overhead = append(overhead, us(s.dur()-spans[h].dur()))
		}
		q := child(outer, "query")
		if q < 0 {
			continue
		}
		outerSelf := selfTime(spanInterval(spans[outer]), childIntervals(spans, kids, outer))
		qSelf := selfTime(spanInterval(spans[q]), childIntervals(spans, kids, q))
		route = append(route, us(outerSelf+qSelf))
		op := spanInterval(s)
		covered += time.Duration(coveredLen(childIntervals(spans, kids, q), op.lo, op.hi))
	}
	st.routeUS = mean(route)
	st.coveragePct = 100 * ratio(float64(covered), float64(opTime))
	st.overheadUS = mean(overhead)
	return st
}

// execProbeOrders is the RF1/RF2 orders execProbe inserts and deletes.
const execProbeOrders = 10

// execProbe gives workloads without a writer their cluster.exec_ms: it
// runs one RF1/RF2 cycle through Cluster.Exec on the otherwise idle
// cluster, after the run's checks, and reports the median service time.
// The cycle deletes what it inserts, and every statement must affect
// its expected row count.
func execProbe(c *apuama.Cluster, seed int64, out *outcome) {
	stream := tpch.NewRefreshStream(tpch.Generator{SF: sf, Seed: seed}, execProbeOrders).Statements()
	expect, err := expectedAffected(stream, execProbeOrders)
	if err != nil {
		out.fail(1, "exec probe: %v", err)
		return
	}
	var service []float64
	for i, text := range stream {
		t0 := time.Now()
		n, err := c.Exec(text)
		service = append(service, ms(time.Since(t0)))
		out.attempted++
		if err != nil || n != expect[i] {
			out.fail(1, "exec probe statement %d: affected %d, want %d (%v)", i, n, expect[i], err)
		}
	}
	out.set("cluster.exec_ms", median(service), "ms")
}

// wireProbe gives workloads that do not drive the wire their proto.*
// metrics: it serves the cluster on loopback behind a timing handler,
// as apuamad would, and runs each text once through database/sql at the
// driver's default DSN, reading every row. proto.overhead_us is client
// latency minus time inside the handler; proto.bytes_per_row is frame
// bytes sent per row returned.
func wireProbe(c *apuama.Cluster, texts []string, out *outcome) error {
	rec := &recorder{}
	srv, err := proto.Serve("127.0.0.1:0", &timingHandler{c: c, rec: rec}, proto.Options{})
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	defer srv.Close()
	db, err := dbsql.Open("apuama", srv.Addr())
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	defer db.Close()
	cn, err := db.Conn(context.Background())
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	defer cn.Close()
	before := srv.Stats()
	var client []float64
	var rows int64
	for _, text := range texts {
		t0 := time.Now()
		_, n, err := doOp(cn, oltpOp{class: opRange, text: text})
		client = append(client, us(time.Since(t0)))
		out.attempted++
		if err != nil {
			out.fail(1, "wire probe %.60q: %v", text, err)
		}
		rows += int64(n)
	}
	after := srv.Stats()
	spans, _ := rec.snapshot()
	if len(spans) != len(texts) {
		return fmt.Errorf("wire probe: %d handler spans for %d statements", len(spans), len(texts))
	}
	var overhead []float64
	for i, s := range spans {
		overhead = append(overhead, client[i]-us(s.dur()))
	}
	out.set("proto.overhead_us", mean(overhead), "us")
	out.set("proto.bytes_per_row", ratio(float64(after.BytesOut-before.BytesOut), float64(rows)), "B")
	return nil
}
