// Command perfbench is the repository's end-to-end serving benchmark.
//
// It serves one workload through the real setcontain/serve HTTP stack on
// loopback listeners, drives it open loop from at most GOMAXPROCS client
// connections, checks every answer against digests computed beforehand
// with the naive scan oracle, and prints each end-to-end metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// also records spans at every boundary the benchmark owns, replays the
// workload's requests down the layer ladder (HTTP → handler → batcher →
// store → reader) and prints the per-layer set instead. See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload paper-read --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the workload seed used when -seed is absent.
const defaultSeed = 1

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every workload's |D| (1 = the documented sizes);
	// the self-test runs at a tiny scale.
	scale float64
	// workDir holds the run's write-ahead logs and trace files.
	workDir string
	// corruptDigest, when >= 0, flips the expected digest of that pool
	// entry, so a correct server answer must count as an error. The
	// self-test uses it to prove the answer check can fail.
	corruptDigest int
	// calibrate replaces the run with a closed-loop capacity probe.
	calibrate bool
}

func main() {
	cfg := config{scale: 1, corruptDigest: -1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed (inputs are a pure function of it)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for write-ahead logs and trace files")
	flag.BoolVar(&cfg.calibrate, "calibrate", false, "measure closed-loop read capacity instead of running the workload")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fatalf("unknown -workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.calibrate {
		if err := calibrate(w, cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if err := printReport(os.Stdout, res, cfg.trace); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the metrics a user of the server sees that hold steady
// from run to run; every workload reports all of them in an untraced
// run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"mem_mb", "MB"},
	{"read_p50_ms.low", "ms"},
	{"read_p50_ms.high", "ms"},
	{"read_qps_at_slo", "req/s"},
}

// perLayer lists the traced run's metrics, grouped by layer. A layer a
// workload bypasses reports 0. The read p99s lead it: users see them,
// but on a shared 2-vCPU machine they swing by more than any bound an
// end-to-end metric may have (README.md), so they carry none.
var perLayer = []metricSpec{
	{"read_p99_ms.low", "ms"},
	{"read_p99_ms.high", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"http.self_us.p50", "us"},
	{"http.bytes_per_req", "bytes"},
	{"handler.self_us.p50", "us"},
	{"handler.self_us.p99", "us"},
	{"batcher.self_us.p50", "us"},
	{"batcher.self_us.p99", "us"},
	{"batcher.mean_batch", "count"},
	{"batcher.rejected_rate", "ratio"},
	{"batcher.canceled", "count"},
	{"store.exec_us.p50", "us"},
	{"store.exec_us.p99", "us"},
	{"store.self_us.p50", "us"},
	{"planner.leaves_per_expr", "count"},
	{"planner.skipped_leaf_rate", "ratio"},
	{"planner.streamed_leaf_rate", "ratio"},
	{"cse.hit_rate", "ratio"},
	{"cse.saved_leaves_per_expr", "count"},
	{"engine.us.p50", "us"},
	{"engine.pages_per_query", "count"},
	{"engine.page_hit_rate", "ratio"},
	{"engine.random_read_share", "ratio"},
	{"engine.decoded_hit_rate", "ratio"},
	{"engine.decoded_evictions_per_query", "count"},
	{"engine.ids_per_query", "count"},
	{"scatter.self_us.p50", "us"},
	{"shard.calls_per_query", "count"},
	{"shard.rpc_us.p50", "us"},
	{"shard.rpc_us.p99", "us"},
	{"scatter.straggler_ratio", "ratio"},
	{"shard.http_us.p50", "us"},
	{"shard.http_bytes_per_query", "bytes"},
	{"durable.insert_us.p50", "us"},
	{"durable.insert_us.p99", "us"},
	{"wal.fsync_us.mean", "us"},
	{"wal.syncs_per_insert", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"checkpoint.count", "count"},
	{"checkpoint.ms.mean", "ms"},
	{"merge.ms.mean", "ms"},
	{"merge.read_p99_ms", "ms"},
	{"delta.pending_at_merge", "count"},
	{"setup.build_s", "s"},
	{"setup.serve_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"error_rate", "ratio"},
	{"insert_ack_p50_ms", "ms"},
	{"insert_ack_p99_ms", "ms"},
	{"recover_s", "s"},
}

// report is everything one run measured.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	// problems explains a false correct, one line each.
	problems []string
	metrics  map[string]float64
	info     map[string]any
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// printReport writes the human-readable lines, then the result object
// as the last line.
func printReport(f io.Writer, r *report, traced bool) error {
	line, err := r.result(traced)
	if err != nil {
		return err
	}
	info, _ := json.Marshal(r.info)
	fmt.Fprintf(f, "info %s\n", info)
	if r.attempted > 0 {
		fmt.Fprintf(f, "error_rate %.6f (%d failed of %d attempted)\n",
			float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "metric %-36s %.6g\n", n, r.metrics[n])
	}
	for _, p := range r.problems {
		fmt.Fprintf(f, "problem %s\n", p)
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// result encodes the result object of the mode's metric catalog. Every
// metric must have been measured: a missing or non-finite one is a
// benchmark bug and fails the run instead of printing a made-up value.
func (r *report) result(traced bool) ([]byte, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]json.RawMessage{}}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v, present %v)", s.name, v, ok)
		}
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, s.unit})
		if err != nil {
			return nil, err
		}
		out.Metrics[s.name] = raw
	}
	return json.Marshal(out)
}

// runInfo records the environment a result was measured in.
func runInfo(w *workload, cfg config, records int) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"records":    records,
		"low_rate":   w.lowRate,
		"high_rate":  w.highRate,
		"slo_p99_ms": sloP99.Seconds() * 1e3,
	}
}
