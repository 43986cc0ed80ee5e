// Command perfbench is the repository's benchmark. It runs one workload
// against an in-process apuama cluster opened at the library defaults
// (apuama.Config{Nodes: 4}) and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from a traced run. The line
// before it is the run record (seed, GOMAXPROCS, nproc, Go version,
// commit, percentile sample counts). See README.md for the workloads
// and the metric map.
//
// Usage (from the repository root, via run.sh, which builds it):
//
//	bash perfbench/run.sh --workload tpch-solo --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// opts are the command-line inputs every workload receives.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	correct           bool
	problems          []string // why correct is false / what failed
	metrics           map[string]metricValue
	samples           map[string]int // sample count behind each percentile
	spans             []span         // traced run only
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]metricValue{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metricValue{Value: v, Unit: unit}
}

// pct reports a percentile metric with its sample count, refusing one
// with too few samples beyond it.
func (o *outcome) pct(name string, xs []float64, p float64, unit string) error {
	v, err := percentile(xs, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.set(name, v, unit)
	o.samples[name] = len(xs)
	return nil
}

// fail records a failed check against count ops.
func (o *outcome) fail(count int64, format string, args ...any) {
	o.correct = false
	o.failed += count
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(opts) (*outcome, error){
	"tpch-solo":    func(o opts) (*outcome, error) { return runOLAP(o, false) },
	"tpch-refresh": func(o opts) (*outcome, error) { return runOLAP(o, true) },
	"oltp-wire":    runOLTP,
}

func main() {
	var o opts
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "tpch-solo, tpch-refresh or oltp-wire")
	flag.Int64Var(&o.seed, "seed", 1, "seed for data, parameters and op mix")
	flag.IntVar(&secs, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o.seconds, o.trace = time.Duration(secs)*time.Second, trace == 1
	// Run records and spans go beside the build outputs (see run.sh).
	o.outDir = filepath.Join(envOr("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := report(o, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// runRecord is what the benchmark writes about a run besides metrics.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Source     string         `json:"source_sha256"`
	Samples    map[string]int `json:"samples"`
	Problems   []string       `json:"problems,omitempty"`
}

// report writes the run record and spans under outDir, then prints the
// record and, last, the result line.
func report(o opts, out *outcome) error {
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	rec := runRecord{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit(), Source: sourceDigest(), Samples: out.samples, Problems: out.problems,
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%t", o.workload, o.seed, o.trace))
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".record.json", recJSON, 0o644); err != nil {
		return err
	}
	if out.spans != nil {
		if err := writeSpans(stem+".spans.jsonl", out.spans); err != nil {
			return err
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.correct, out.attempted, out.failed, out.metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", recJSON, res)
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the library's Go sources and go.mod below the
// working directory (the repository root), skipping this benchmark and
// dot-directories, so a record identifies the code it measured even
// without git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
