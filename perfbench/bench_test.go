package main

import (
	"math"
	"testing"
	"time"

	"apuama"
	"apuama/internal/obs"
)

func TestPercentileRefusesFewSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200) // p95 rank 190: 10 beyond
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	v, err := percentile(xs, 0.95)
	if err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Fatal("p95 over 199 samples leaves 9 beyond it; want a refusal")
	}
	if _, err := percentile(make([]float64, 999), 0.99); err == nil {
		t.Fatal("p99 over 999 samples; want a refusal")
	}
	if _, err := percentile(make([]float64, 1000), 0.99); err != nil {
		t.Fatalf("p99 over 1000 samples leaves 10 beyond it: %v", err)
	}
}

func TestGeomeanOfMedians(t *testing.T) {
	byClass := map[string][]float64{
		"Q1": {100, 1, 4},    // median 4
		"Q3": {9, 9, 1000},   // median 9
		"Q6": {1, 2, 3, 100}, // median 2.5
	}
	got, err := geomeanOfMedians([]string{"Q1", "Q3", "Q6"}, byClass)
	want := math.Cbrt(4 * 9 * 2.5)
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Fatalf("geomean = %v, %v; want %v", got, err, want)
	}
	if _, err := geomeanOfMedians([]string{"Q1", "Q21"}, byClass); err == nil {
		t.Fatal("a class with no samples must be refused, not dropped")
	}
}

// fakeClock advances only when the loop sleeps or a call takes time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromDueWhenACallStalls(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := openLoop{interval: 10 * time.Millisecond, now: clk.now, sleep: clk.sleep}
	start := clk.now()
	got := l.run(start, start.Add(60*time.Millisecond), func(i int) error {
		if i == 1 {
			clk.advance(35 * time.Millisecond) // stalls past three more due times
		} else {
			clk.advance(time.Millisecond)
		}
		return nil
	})
	// Due at 0,10,...,50 ms. Call 1 is sent at 10 and ends at 45; calls
	// 2-4 (due 20, 30, 40) are sent late at 45, 46, 47.
	want := []loopSample{
		{latency: 1 * time.Millisecond},
		{latency: 35 * time.Millisecond},
		{latency: 26 * time.Millisecond, late: 25 * time.Millisecond},
		{latency: 17 * time.Millisecond, late: 16 * time.Millisecond},
		{latency: 8 * time.Millisecond, late: 7 * time.Millisecond},
		{latency: 1 * time.Millisecond},
	}
	if len(got) != len(want) {
		t.Fatalf("%d calls, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].latency != want[i].latency || got[i].late != want[i].late {
			t.Errorf("call %d: latency %v late %v, want %v %v", i, got[i].latency, got[i].late, want[i].latency, want[i].late)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40}, {20, 50}, // overlap: together cover 10..50
		{45, 60}, // chains onto the union
		{80, 90},
		{95, 130}, // clipped to the parent: 95..100
		{-20, 5},  // clipped: 0..5
	}
	// Covered: 0..5, 10..60, 80..90, 95..100 = 5+50+10+5 = 70.
	if got := selfTime(parent, children); got != 30 {
		t.Fatalf("self time = %v, want 30ns", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %v, want 100ns", got)
	}
	if got := coveredLen([]interval{{10, 20}, {10, 20}, {12, 15}}, 0, 100); got != 10 {
		t.Fatalf("duplicate children covered %d, want 10", got)
	}
}

func TestDefaultsGuard(t *testing.T) {
	if err := checkDefaults(clusterConfig(false), false); err != nil {
		t.Fatalf("untraced config: %v", err)
	}
	if err := checkDefaults(clusterConfig(true), true); err != nil {
		t.Fatalf("traced config: %v", err)
	}
	if err := checkDefaults(clusterConfig(true), false); err == nil {
		t.Fatal("an untraced run must not set Trace")
	}
	for _, cfg := range []apuama.Config{
		{Nodes: 4, Columnar: true},
		{Nodes: 4, MQO: true},
		{Nodes: 4, Parallelism: 1},
		{Nodes: 4, Cost: apuama.DefaultCost()},
	} {
		if err := checkDefaults(cfg, true); err == nil {
			t.Errorf("guard accepted %+v", cfg)
		}
	}
}

func TestExpectedAffected(t *testing.T) {
	stream := []string{
		"insert into orders values (1)", "insert into lineitem values (1), (2), (3)",
		"insert into orders values (2)", "insert into lineitem values (4)",
		"delete from lineitem where l_orderkey = 1", "delete from orders where o_orderkey = 1",
		"delete from lineitem where l_orderkey = 2", "delete from orders where o_orderkey = 2",
	}
	got, err := expectedAffected(stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 1, 1, 3, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("expected affected = %v, want %v", got, want)
		}
	}
}

func TestMedianRateIgnoresOneBadWindow(t *testing.T) {
	var done []time.Duration
	for ms := 0; ms < 1000; ms += 10 { // 100/s steadily over 1 s
		if ms < 100 || ms >= 200 { // except a stalled second window
			done = append(done, time.Duration(ms)*time.Millisecond)
		}
	}
	done = append(done, 1500*time.Millisecond) // after the phase: ignored
	// Each window holds completions 10 ms apart: 9 intervals over 90 ms.
	if got := medianRate(done, time.Second); math.Abs(got-100) > 1e-9 {
		t.Fatalf("median rate = %v, want 100", got)
	}
}

func TestSetupRepeatedTimesAllButTheFirst(t *testing.T) {
	made, closed := 0, []int{}
	last, secs, err := setupRepeated(3,
		func() (int, error) { made++; return made, nil },
		func(v int) { closed = append(closed, v) })
	if err != nil || last != 4 || len(secs) != 3 {
		t.Fatalf("setupRepeated(3) = %v, %d timings, %v; want the 4th set-up and 3 timings", last, len(secs), err)
	}
	if len(closed) != 3 || closed[0] != 1 || closed[2] != 3 {
		t.Fatalf("closed %v, want set-ups 1-3", closed)
	}
}

func TestJoinAndSpanStats(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rec := &recorder{}
	// Two ops ran the same text; the handler and the program's tree
	// belong to the second one by time.
	rec.add(span{Parent: -1, Op: 1, Name: "op", SQL: "q", Start: at(0), End: at(10)})
	rec.add(span{Parent: -1, Op: 2, Name: "op", SQL: "q", Start: at(20), End: at(40)})
	rec.add(span{Parent: -1, Op: -1, Name: "handler", SQL: "q", Start: at(22), End: at(38)})
	tree := apuama.QueryTrace{Name: "query", Start: at(23), Duration: 14 * time.Millisecond,
		Attrs: []obs.Attr{{Key: "sql", Value: "q"}},
		Children: []apuama.QueryTrace{
			{Name: "subquery", Start: at(24), Duration: 8 * time.Millisecond},
			{Name: "subquery", Start: at(26), Duration: 8 * time.Millisecond}, // overlaps: 24..34
			{Name: "compose", Start: at(35), Duration: time.Millisecond},
		}}
	rec.link("handler", "op")
	rec.joinTrees("handler", []apuama.QueryTrace{tree})
	spans, kids := rec.snapshot()
	if h := spans[2]; h.Parent != 1 || h.Op != 2 {
		t.Fatalf("handler joined to span %d op %d, want span 1 op 2", h.Parent, h.Op)
	}
	if len(kids[2]) != 1 || spans[kids[2][0]].Name != "query" || len(kids[kids[2][0]]) != 3 {
		t.Fatalf("query tree not grafted under the handler: %+v", spans)
	}
	st := spanStats(rec)
	// Op 2: handler self 16-14 = 2 ms, query self 14-11 = 3 ms; phases
	// cover 11 of the op's 20 ms; the wire took 20-16 = 4 ms. Op 1 has
	// no tree: its 10 ms count as uncovered.
	if st.routeUS != 5000 || st.overheadUS != 4000 {
		t.Fatalf("route %v us, overhead %v us; want 5000, 4000", st.routeUS, st.overheadUS)
	}
	if want := 100 * 11.0 / 30; math.Abs(st.coveragePct-want) > 1e-9 {
		t.Fatalf("coverage %v%%, want %v", st.coveragePct, want)
	}
}

func TestHistQuantileInterpolatesInBucket(t *testing.T) {
	buckets := []float64{0, 1, 2, 4, math.Inf(1)}
	counts := []uint64{50, 30, 20, 0}
	// The 0.9 quantile is the 10th of 20 samples in [2, 4): 2 + 2*10/20.
	if got := histQuantile(counts, buckets, 0.9); math.Abs(got-3) > 1e-12 {
		t.Fatalf("q0.9 = %v, want 3", got)
	}
	if got := histQuantile([]uint64{0, 0, 0, 5}, buckets, 0.99); got != 4 {
		t.Fatalf("quantile in the unbounded bucket = %v, want its lower bound 4", got)
	}
	if got := histQuantile(make([]uint64, 4), buckets, 0.99); got != 0 {
		t.Fatalf("empty histogram = %v, want 0", got)
	}
}
