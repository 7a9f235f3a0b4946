package main

// metricDef is one reported metric, as declared in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"capacity_qps", "1/s", "higher", 0.25},
	{"update_p50_ms", "ms", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.1},
}

// perLayer are the single-layer metrics of a traced run. Every workload
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"http.transport_ms", "ms", "lower", 0},
	{"serve.handler_ms", "ms", "lower", 0},
	{"serve.admission_ms", "ms", "lower", 0},
	{"serve.cache_hit_frac", "fraction", "higher", 0},
	{"serve.shed_frac", "fraction", "lower", 0},
	{"engine.query_ms", "ms", "lower", 0},
	{"engine.expansions_per_query", "count", "lower", 0},
	{"engine.full_sets_per_query", "count", "lower", 0},
	{"engine.early_stop_frac", "fraction", "higher", 0},
	{"engine.graphs_skipped_per_query", "count", "higher", 0},
	{"engine.probe_hit_frac", "fraction", "higher", 0},
	{"engine.bound_memo_hits_per_query", "count", "higher", 0},
	{"rrindex.build_s", "s", "lower", 0},
	{"rrindex.index_mb", "MB", "lower", 0},
	{"update.repair_ms", "ms", "lower", 0},
	{"update.swap_ms", "ms", "lower", 0},
	{"update.repaired_frac", "fraction", "lower", 0},
	{"update.loaded_ms", "ms", "lower", 0},
	{"distrib.estimates_per_query", "count", "lower", 0},
	{"distrib.estimate_ms", "ms", "lower", 0},
	{"distrib.estimate_share", "fraction", "lower", 0},
	{"distrib.wire_ms", "ms", "lower", 0},
	{"distrib.hedge_frac", "fraction", "lower", 0},
	{"distrib.identical_frac", "fraction", "higher", 0},
	{"shard.handler_ms", "ms", "lower", 0},
	{"shard.bytes_per_query", "B", "lower", 0},
	{"shard.build_s", "s", "lower", 0},
	{"analytics.chunk_ms", "ms", "lower", 0},
	{"gen.late_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
}

// report is one run's outcome: operations attempted and failed (failed,
// refused, or answered wrongly), and the metrics.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// notes are printed before the result line.
	notes []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }
