// Command e2ebench is pitex's end-to-end benchmark. It generates its
// inputs from a seed, runs one named workload in this process — a
// /selling-points server in process or over a loopback shard fleet, or a
// DelayMat cohort sweep — checks every answer, and prints the metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the root of the repository; see README.md):
//
//	bash e2ebench/run.sh --workload serve-zipf-writes --seed 1 --seconds 26 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// conns is the load's connection and client count, nproc.
	conns int
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(context.Context, runConfig) (*report, error)
	// unlisted workloads run only by name and are not in BENCHMARK.json.
	unlisted bool
}

// The open-loop rates sit near a fifth of the closed-loop capacity a
// 2-core machine had on its slow days when the benchmark was written, and
// a tenth on its fast ones (see README.md).
//
// serve-uniform is unlisted: it is distrib-s3's inputs served in process,
// the base of the distribution tax, run by hand. BENCHMARK.json keeps
// three workloads so that each run can be 26 s long (see README.md).
var workloads = []workload{
	{name: "serve-uniform", unlisted: true, run: func(ctx context.Context, c runConfig) (*report, error) {
		return runServing(ctx, c, servingSpec{rate: 40})
	}},
	{name: "serve-zipf-writes", run: func(ctx context.Context, c runConfig) (*report, error) {
		return runServing(ctx, c, servingSpec{zipf: true, writes: true, rate: 50})
	}},
	{name: "distrib-s3", run: func(ctx context.Context, c runConfig) (*report, error) {
		return runServing(ctx, c, servingSpec{distrib: true, closedOnly: true})
	}},
	{name: "sweep-delaymat", run: runSweep},
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(true), ", ")+", or all (the listed ones)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed: dataset, requests, users, updates and cohort")
	flag.Float64Var(&cfg.seconds, "seconds", 26, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs with the tracing wrappers and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.conns = runtime.GOMAXPROCS(0)
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var run []workload
	for _, w := range workloads {
		if cfg.workload == w.name || (cfg.workload == "all" && !w.unlisted) {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown --workload %q (want one of %s, or all)\n", cfg.workload, strings.Join(workloadNames(true), ", "))
		os.Exit(2)
	}
	for _, w := range run {
		c := cfg
		c.workload = w.name
		rep, err := w.run(context.Background(), c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if err := printReport(c, rep); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
}

// workloadNames lists the workloads of BENCHMARK.json, and the unlisted
// ones too when unlisted is set.
func workloadNames(unlisted bool) []string {
	var names []string
	for _, w := range workloads {
		if unlisted || !w.unlisted {
			names = append(names, w.name)
		}
	}
	return names
}

// printReport prints the notes, a metric table, and the result line.
func printReport(cfg runConfig, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("== %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := rep.metrics[d.Name]
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, v, d.Unit)
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// selfTimeTable renders each layer's total self time from the spans,
// largest first.
func selfTimeTable(spans []span) []string {
	self := selfTimes(spans)
	type row struct {
		name  string
		n     int
		total time.Duration
	}
	var rows []row
	var all time.Duration
	for name, ds := range self {
		if strings.HasPrefix(name, layerSetup) {
			continue
		}
		r := row{name: name, n: len(ds)}
		for _, d := range ds {
			r.total += d
		}
		all += r.total
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	out := []string{fmt.Sprintf("%-20s %8s %12s %7s %12s", "self time by layer", "spans", "total ms", "share", "median ms")}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%-20s %8d %12.1f %6.1f%% %12.4f",
			r.name, r.n, durMS(r.total), 100*float64(r.total)/float64(max(all, 1)), medianDur(self[r.name])))
	}
	var setup []string
	for name := range self {
		if strings.HasPrefix(name, layerSetup) {
			setup = append(setup, fmt.Sprintf("%s %.4f s", name, medianDur(self[name])/1000))
		}
	}
	slices.Sort(setup)
	return append(out, "set-up spans (median): "+strings.Join(setup, ", "))
}

// writeSpans writes the traced run's spans under the build directory.
func writeSpans(cfg runConfig, tr *tracer) error {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
