package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"apuama"
	"apuama/internal/sql"
	"apuama/internal/tpch"
)

const (
	// sf is the TPC-H scale factor of every workload.
	sf = 0.01
	// setups is how many timed set-ups a run makes; setup_s is their
	// median. One untimed set-up comes first: the process's first ones
	// run slower while its heap grows to size.
	setups = 5
	// writeInterval paces the refresh writer at 100 statements/s.
	writeInterval = 10 * time.Millisecond
	// refreshOrders is the new orders per RF1/RF2 cycle (4 statements
	// each, so one cycle is 2 s at 100 statements/s).
	refreshOrders = 50
	// checksPerTemplate bounds the single-node answer checks: checking
	// every distinct text would cost more than the timed phase.
	checksPerTemplate = 4
)

// validationQueries are answered before and after a refresh run; a
// writer that finished its RF1/RF2 cycle leaves them unchanged.
var validationQueries = []string{
	"select count(*) from orders",
	"select count(*), sum(l_quantity), sum(l_extendedprice) from lineitem",
	"select max(o_orderkey), sum(o_totalprice) from orders",
}

// olapCluster is one set-up cluster for the TPC-H workloads.
type olapCluster struct {
	c      *apuama.Cluster
	load   time.Duration
	stream []string // one RF1/RF2 cycle (refresh only)
	expect []int64  // rows each stream statement must affect
	writes int64    // Exec calls made on this cluster
}

// setupOLAP opens a cluster, loads TPC-H and runs one untimed warm-up
// pass: every template once and, for refresh, one RF1/RF2 order.
func setupOLAP(seed int64, refresh, traced bool) (*olapCluster, error) {
	c, err := openCluster(traced)
	if err != nil {
		return nil, err
	}
	oc := &olapCluster{c: c}
	t0 := time.Now()
	if err := c.LoadTPCH(sf, seed); err != nil {
		c.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	oc.load = time.Since(t0)
	r := rand.New(rand.NewSource(seed + 1))
	for _, qn := range tpch.QueryNumbers {
		text, err := tpch.RandomQuery(qn, r)
		if err == nil {
			_, err = c.Query(text)
		}
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("warm-up Q%d: %w", qn, err)
		}
	}
	if refresh {
		oc.stream = tpch.NewRefreshStream(tpch.Generator{SF: sf, Seed: seed}, refreshOrders).Statements()
		if oc.expect, err = expectedAffected(oc.stream, refreshOrders); err != nil {
			c.Close()
			return nil, err
		}
		for _, i := range []int{0, 1, 2 * refreshOrders, 2*refreshOrders + 1} {
			n, err := c.Exec(oc.stream[i])
			oc.writes++
			if err != nil || n != oc.expect[i] {
				c.Close()
				return nil, fmt.Errorf("warm-up write %d: affected %d, want %d (%v)", i, n, oc.expect[i], err)
			}
		}
	}
	return oc, nil
}

// expectedAffected derives each refresh statement's affected-row count
// from the stream's own layout: per order an orders insert (1 row) and
// a lineitem insert (m rows), then the matching deletes in that order.
func expectedAffected(stream []string, n int) ([]int64, error) {
	if len(stream) != 4*n {
		return nil, fmt.Errorf("refresh stream has %d statements, want %d", len(stream), 4*n)
	}
	out := make([]int64, len(stream))
	for i := 0; i < n; i++ {
		st, err := sql.Parse(stream[2*i+1])
		ins, ok := st.(*sql.InsertStmt)
		if err != nil || !ok {
			return nil, fmt.Errorf("refresh statement %d is not an insert (%v)", 2*i+1, err)
		}
		m := int64(len(ins.Rows))
		out[2*i], out[2*i+1] = 1, m
		out[2*n+2*i], out[2*n+2*i+1] = m, 1
	}
	return out, nil
}

// setupRepeated sets up one untimed and then `times` timed clusters in
// turn, keeping the last one and closing the others, and returns each
// timed setup's duration.
func setupRepeated[T any](times int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var secs []float64
	for k := 0; k <= times; k++ {
		if k > 0 {
			teardown(last)
			runtime.GC() // the next setup should not pay for this one's garbage
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		if k > 0 {
			secs = append(secs, time.Since(t0).Seconds())
		}
		last = v
	}
	return last, secs, nil
}

// olapRun is what one timed phase of a TPC-H workload observed.
type olapRun struct {
	lat       map[string][]float64 // per template, ms
	all       []float64            // every query, ms
	gaps      []float64            // ms from a query's completion to the next one's issue
	doneAt    []time.Duration      // completion offsets of successful queries
	attempted int64
	errors    int64
	answers   map[string]*apuama.Result // first answer per text (solo)
	texts     map[string][]string       // distinct texts per template
	perText   map[string]int64          // ops per text

	writes []loopSample // refresh writer, in issue order
	wrong  []string     // writes that affected the wrong row count
}

func templateName(qn int) string { return "Q" + strconv.Itoa(qn) }

// runOLAPPhase drives the closed-loop query client (and, for refresh,
// the open-loop writer) for d. Templates are drawn as shuffled rounds
// of all eight, so each gets an equal share of a run.
func runOLAPPhase(oc *olapCluster, seed int64, d time.Duration, refresh bool, rec *recorder) *olapRun {
	runtime.GC() // every timed phase starts from the same collector state
	run := &olapRun{
		lat: map[string][]float64{}, answers: map[string]*apuama.Result{},
		texts: map[string][]string{}, perText: map[string]int64{},
	}
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	if refresh {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.writes = wallLoop(writeInterval).run(start, stop, func(i int) error {
				k := i % len(oc.stream)
				t0 := time.Now()
				n, err := oc.c.Exec(oc.stream[k])
				if rec != nil {
					rec.add(span{Parent: -1, Op: -1, Name: "write", SQL: oc.stream[k], Start: t0, End: time.Now()})
				}
				if err == nil && n != oc.expect[k] {
					err = fmt.Errorf("statement %d affected %d rows, want %d", k, n, oc.expect[k])
				}
				return err
			})
		}()
	}

	r := rand.New(rand.NewSource(seed))
	var deck []int
	prevDone := start
	for op := 0; time.Now().Before(stop); op++ {
		if len(deck) == 0 {
			deck = append(deck, tpch.QueryNumbers...)
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		qn := deck[0]
		deck = deck[1:]
		text, err := tpch.RandomQuery(qn, r)
		if err != nil {
			panic(err) // QueryNumbers are all valid templates
		}
		t0 := time.Now()
		res, err := oc.c.Query(text)
		done := time.Now()
		dur := done.Sub(t0)
		run.gaps = append(run.gaps, ms(t0.Sub(prevDone)))
		prevDone = done
		run.attempted++
		if rec != nil {
			rec.add(span{Parent: -1, Op: op, Name: "op", SQL: text, Start: t0, End: done})
		}
		if err != nil {
			run.errors++
			continue
		}
		name := templateName(qn)
		run.doneAt = append(run.doneAt, done.Sub(start))
		run.lat[name] = append(run.lat[name], ms(dur))
		run.all = append(run.all, ms(dur))
		if run.perText[text] == 0 {
			run.texts[name] = append(run.texts[name], text)
			if !refresh {
				run.answers[text] = res
			}
		}
		run.perText[text]++
	}
	wg.Wait()
	for i, w := range run.writes {
		if w.err != nil {
			run.wrong = append(run.wrong, fmt.Sprintf("write %d: %v", i, w.err))
		}
	}
	oc.writes += int64(len(run.writes))
	return run
}

// finishCycle runs the rest of the writer's RF1/RF2 cycle, untimed, so
// the database returns to its loaded state.
func finishCycle(oc *olapCluster, issued int, out *outcome) {
	for k := issued % len(oc.stream); k != 0 && k < len(oc.stream); k++ {
		n, err := oc.c.Exec(oc.stream[k])
		oc.writes++
		if err != nil || n != oc.expect[k] {
			out.fail(1, "finishing write %d: affected %d, want %d (%v)", k, n, oc.expect[k], err)
		}
	}
}

// answerValidation runs the validation queries on the cluster.
func answerValidation(c *apuama.Cluster) ([]*apuama.Result, error) {
	var out []*apuama.Result
	for _, q := range validationQueries {
		res, err := c.Query(q)
		if err != nil {
			return nil, fmt.Errorf("validation %q: %w", q, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// checkOLAP runs outside the timed phase. Sampled texts are answered on
// a single node without SVP and compared with the cluster's answer: the
// one returned during the run (solo) or a fresh one after the writer
// finished its cycle (refresh). Refresh also checks every write's row
// count, the validation answers and every node's watermark.
func checkOLAP(oc *olapCluster, run *olapRun, seed int64, refresh bool, pre []*apuama.Result, out *outcome) {
	out.attempted += run.attempted + int64(len(run.writes))
	out.failed += run.errors
	if run.errors > 0 {
		out.fail(0, "%d queries failed", run.errors)
	}
	_, nodesList, _, _ := oc.c.Internals()
	if refresh {
		for _, w := range run.wrong {
			out.fail(1, "%s", w)
		}
		finishCycle(oc, len(run.writes), out)
		post, err := answerValidation(oc.c)
		if err != nil {
			out.fail(1, "%v", err)
		}
		for i := range post {
			if err := sameResult(post[i], pre[i]); err != nil {
				out.fail(1, "validation %q changed: %v", validationQueries[i], err)
			}
		}
		for _, nd := range nodesList {
			if w := nd.Watermark(); w != oc.writes {
				out.fail(1, "node %d watermark %d, want last write id %d", nd.ID(), w, oc.writes)
			}
		}
	}
	r := rand.New(rand.NewSource(seed + 2))
	for _, text := range sampleTexts(r, run.texts, checksPerTemplate) {
		want, err := nodesList[0].Query(text)
		if err != nil {
			out.fail(run.perText[text], "single-node reference for %.60q: %v", text, err)
			continue
		}
		got := run.answers[text]
		if refresh {
			if got, err = oc.c.Query(text); err != nil {
				out.fail(run.perText[text], "re-check %.60q: %v", text, err)
				continue
			}
		}
		if err := sameResult(got, want); err != nil {
			out.fail(run.perText[text], "answer to %.60q: %v", text, err)
		}
	}
}

// runOLAP is the tpch-solo and tpch-refresh workload.
func runOLAP(o opts, refresh bool) (*outcome, error) {
	if o.trace {
		return traceOLAP(o, refresh)
	}
	out := newOutcome()
	heap := startHeapPeak()
	oc, setupSecs, err := setupRepeated(setups,
		func() (*olapCluster, error) { return setupOLAP(o.seed, refresh, false) },
		func(oc *olapCluster) { oc.c.Close() })
	if err != nil {
		heap.finish()
		return nil, err
	}
	defer oc.c.Close()
	var pre []*apuama.Result
	if refresh {
		if pre, err = answerValidation(oc.c); err != nil {
			heap.finish()
			return nil, err
		}
	}
	run := runOLAPPhase(oc, o.seed, o.seconds, refresh, nil)
	out.set("heap_mb", heap.finish(), "MiB")
	checkOLAP(oc, run, o.seed, refresh, pre, out)

	out.set("setup_s", median(setupSecs), "s")
	out.set("ops_per_s", medianRate(run.doneAt, o.seconds), "1/s")
	g, err := geomeanOfMedians(templateNames(), run.lat)
	if err != nil {
		return nil, fmt.Errorf("geomean_ms: %w", err)
	}
	out.samples["geomean_ms"] = len(run.all)
	if refresh {
		// Reads and writes count equally: the writer's median latency
		// from due time weighs as much as the eight templates together.
		lat := make([]float64, len(run.writes))
		for i, w := range run.writes {
			lat[i] = ms(w.latency)
		}
		if len(lat) == 0 {
			return nil, fmt.Errorf("geomean_ms: the writer issued no statement")
		}
		g = math.Sqrt(g * median(lat))
		out.samples["geomean_ms"] += len(lat)
	}
	out.set("geomean_ms", g, "ms")
	if err := out.pct("p90_ms", run.all, 0.90, "ms"); err != nil {
		return nil, err
	}
	return out, nil
}

func templateNames() []string {
	names := make([]string, len(tpch.QueryNumbers))
	for i, qn := range tpch.QueryNumbers {
		names[i] = templateName(qn)
	}
	return names
}

// traceOLAP is the traced run of a TPC-H workload: half the time on an
// untraced cluster for the throughput baseline, half on a traced one
// whose spans and counter deltas give the per-layer metrics.
func traceOLAP(o opts, refresh bool) (*outcome, error) {
	half := o.seconds / 2
	base, err := setupOLAP(o.seed, refresh, false)
	if err != nil {
		return nil, err
	}
	baseRun := runOLAPPhase(base, o.seed, half, refresh, nil)
	base.c.Close()
	runtime.GC()

	oc, err := setupOLAP(o.seed, refresh, true)
	if err != nil {
		return nil, err
	}
	defer oc.c.Close()
	var pre []*apuama.Result
	if refresh {
		if pre, err = answerValidation(oc.c); err != nil {
			return nil, err
		}
	}
	rec := &recorder{}
	before := snapCounters(oc.c, nil)
	run := runOLAPPhase(oc, o.seed, half, refresh, rec)
	after := snapCounters(oc.c, nil)
	rec.joinTrees("op", oc.c.SlowLog())

	var texts, svpTexts []string
	for _, qn := range tpch.QueryNumbers {
		ts := run.texts[templateName(qn)]
		texts = append(texts, ts...)
		svpTexts = append(svpTexts, ts[:min(2, len(ts))]...)
	}
	if refresh {
		texts = append(texts, oc.stream...)
	}
	out := newOutcome()
	layerMetrics(tracedPhase{
		c: oc.c, before: before, after: after,
		queries: run.attempted, writes: int64(len(run.writes)),
		texts: texts, svpTexts: svpTexts, rec: rec,
		loads:       []float64{base.load.Seconds(), oc.load.Seconds()},
		thrUntraced: medianRate(baseRun.doneAt, half),
		thrTraced:   medianRate(run.doneAt, half),
		seed:        o.seed,
	}, out)
	if refresh {
		var service, late []float64
		for _, w := range run.writes {
			service = append(service, ms(w.latency-w.late))
			late = append(late, ms(w.late))
		}
		out.set("cluster.exec_ms", median(service), "ms")
		out.set("bench.gen_late_ms", mean(late), "ms")
	} else {
		out.set("bench.gen_late_ms", mean(run.gaps), "ms")
	}
	checkOLAP(oc, run, o.seed, refresh, pre, out)
	if !refresh {
		execProbe(oc.c, o.seed, out)
	}
	if err := wireProbe(oc.c, svpTexts, out); err != nil {
		return nil, err
	}
	return out, nil
}
