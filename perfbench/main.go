// Command perfbench is the repository's benchmark. It drives one of three
// workloads through the public entry points of the serving tier
// (serve.API), the fleet proxy (cluster.Proxy), the streaming ingester
// (ingest.Ingester) and the root psd package, all in this one process on
// loopback listeners, checks every answer against an independently opened
// slab, and prints each metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run is repeated with span recording on and the per-layer metrics are
// printed instead. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload count-hot --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"psd"
	"psd/internal/atomicfile"
	"psd/internal/workload"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	commit   string
	sc       scale
}

// scale sizes a run. fullScale is the benchmark; tests use a small one.
type scale struct {
	dataPoints     int // size of the fixed road-network dataset
	setupReps      int // set-ups per run; setup_s is their median
	countSetupReps int // the same for count-hot, whose set-up is costlier

	quadHeight     int     // count-hot quadtree height (h10: a 53MB artifact)
	treeHeight     int     // kd, PrivTree and Hilbert-R height
	poolPerRelease int     // count-hot distinct rectangles per release
	countRefRate   float64 // count-hot reference arrival rate, requests/s
	countLadder    []float64
	countP99Limit  time.Duration

	batchRects int // rectangles per batch-unique request

	ingestBase    int     // points ingested and published during set-up
	ingestBatch   int     // points per ingest call
	ingestRate    float64 // open-loop ingest calls per second
	nudgeEvery    int     // ingest calls between publisher nudges
	publishCycles int     // ingest-publish publishes with nothing beside them
	readRate      float64 // ingest-publish reader requests per second
}

var fullScale = scale{
	dataPoints:     163_000,
	setupReps:      7,
	countSetupReps: 3,
	quadHeight:     10,
	treeHeight:     8,
	poolPerRelease: 1024,
	countRefRate:   1000,
	countLadder:    []float64{1500, 2000, 2500, 3000, 3500},
	countP99Limit:  5 * time.Millisecond,
	batchRects:     256,
	ingestBase:     50_000,
	ingestBatch:    25,
	ingestRate:     400,
	nudgeEvery:     400,
	publishCycles:  16,
	readRate:       400,
}

const (
	wlCountHot      = "count-hot"
	wlBatchUnique   = "batch-unique"
	wlIngestPublish = "ingest-publish"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports each of them; work_per_s is the
// workload's own throughput (see README.md). Request latencies are printed
// with their evidence and reported as bench.p50_ms, bench.p90_ms and
// bench.p99_ms by the traced run, but not gated: on a shared two-vCPU host
// sub-millisecond latencies drift by a fifth to a third between runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_per_s", "1/s"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"cluster.proxy_self_us_p50", "us"},
	{"cluster.proxy_self_us_p99", "us"},
	{"cluster.retries_per_1k", "count"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.codec_us_per_query", "us"},
	{"serve.release_us_per_query", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions_per_1k", "count"},
	{"serve.load_ms", "ms"},
	{"serve.shed_per_1k", "count"},
	{"core.query_us_per_query", "us"},
	{"core.nodes_visited_per_query", "count"},
	{"core.nodes_added_per_query", "count"},
	{"core.partial_leaves_per_query", "count"},
	{"core.build_ms", "ms"},
	{"core.write_v3_ms", "ms"},
	{"core.open_v3_us", "us"},
	{"core.verify_ms", "ms"},
	{"ingest.fsync_us_p50", "us"},
	{"ingest.fsync_us_p99", "us"},
	{"ingest.fsyncs_per_ack", "count"},
	{"ingest.wal_bytes_per_point", "B"},
	{"ingest.ack_self_us_p50", "us"},
	{"ingest.publish_build_ms", "ms"},
	{"ingest.publish_write_ms", "ms"},
	{"ingest.publish_other_ms", "ms"},
	{"ingest.publish_points", "count"},
	{"setup.build_ms", "ms"},
	{"setup.write_v3_ms", "ms"},
	{"setup.load_verify_ms", "ms"},
	{"setup.start_ms", "ms"},
	{"setup.warmup_ms", "ms"},
	{"proc.cpu_us_per_op", "us"},
	{"bench.p50_ms", "ms"},
	{"bench.p90_ms", "ms"},
	{"bench.p99_ms", "ms"},
	{"bench.gen_lag_ms_p99", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.read_p50_ms", "ms"},
	{"bench.read_p99_ms", "ms"},
	{"bench.publish_p50_s", "s"},
	{"bench.fail_ratio", "ratio"},
}

// result is what a workload measured.
type result struct {
	tally
	e2e   map[string]float64
	layer map[string]float64
	// pcts and named are the workload's own figures under their own names
	// (count_p99_ms, publish_p50_s, ...), with the sample evidence behind
	// each percentile; they go to the report.
	pcts  map[string]pctl
	named map[string]float64
	// audits are the post-run checks and whether each passed.
	audits map[string]bool
	spans  []span
}

func newResult() *result {
	return &result{
		e2e: map[string]float64{}, layer: map[string]float64{},
		pcts: map[string]pctl{}, named: map[string]float64{}, audits: map[string]bool{},
	}
}

// audit records a post-run check; a failed one counts as a failure.
func (r *result) audit(name string, ok bool, format string, args ...any) {
	r.audits[name] = ok
	if !ok {
		r.note("audit %s: "+format, append([]any{name}, args...)...)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: count-hot, batch-unique or ingest-publish")
	seed := fs.Int64("seed", 1, "workload seed: rectangles, points and arrival schedules derive from it")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for artifacts, ingest state and reports")
	commit := fs.String("commit", "unknown", "commit being measured, for the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workdir: *workdir, commit: *commit, sc: fullScale,
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	res, host, err := execute(cfg)
	if err == nil {
		err = report(cfg, host, res, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// execute runs one workload in a fresh scratch directory under the workdir
// and removes that directory afterwards.
func execute(cfg config) (*result, hostInfo, error) {
	// Flush what earlier runs left for the disk (dirty pages, and the
	// discards of their deleted files) before anything here is timed.
	syscall.Sync()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, hostInfo{}, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, hostInfo{}, err
	}
	defer os.RemoveAll(dir)
	host := collectHost(dir, cfg.commit, cfg)
	h, err := inputsHash(cfg.workload, cfg.seed, cfg.sc, cfg.seconds)
	if err != nil {
		return nil, host, err
	}
	host.InputsHash = fmt.Sprintf("%016x", h)
	var res *result
	switch cfg.workload {
	case wlCountHot:
		res, err = runCountHot(cfg, dir)
	case wlBatchUnique:
		res, err = runBatchUnique(cfg, dir)
	case wlIngestPublish:
		res, err = runIngestPublish(cfg, dir)
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", cfg.workload, wlCountHot, wlBatchUnique, wlIngestPublish)
	}
	if err != nil {
		return nil, host, err
	}
	if res.attempted > 0 {
		res.layer["bench.fail_ratio"] = float64(res.failed) / float64(res.attempted)
	}
	return res, host, nil
}

// dataset is the fixed road-network point set every release is built
// over. It is part of the benchmark's definition, not of its seeded
// inputs, so artifacts and set-up cost are the same in every run.
func dataset(sc scale) ([]psd.Point, psd.Rect) {
	ds := workload.RoadNetwork(workload.RoadNetworkConfig{N: sc.dataPoints, Seed: 7})
	return ds.Points, ds.Domain
}

// fileReport is the full report written under the workdir.
type fileReport struct {
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Audits    map[string]bool    `json:"audits"`
	Named     map[string]float64 `json:"named"`
	Pcts      map[string]pctl    `json:"percentiles"`
	Metrics   map[string]metric  `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric by name and unit, writes the full report
// under the workdir, and ends stdout with the one-line JSON result.
func report(cfg config, host hostInfo, res *result, w io.Writer) error {
	defs, vals := endToEnd, res.e2e
	if cfg.trace {
		defs, vals = perLayer, res.layer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	correct := res.failed == 0 && res.attempted > 0
	for _, ok := range res.audits {
		correct = correct && ok
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, host.Seconds, cfg.trace)
	fmt.Fprintf(w, "# host cpus=%d gomaxprocs=%d go=%s kernel=%s tempfs=%s commit=%s inputs=%s\n",
		host.CPUs, host.GOMAXPROCS, host.GoVersion, host.Kernel, host.TempFS, host.Commit, host.InputsHash)
	for _, name := range sortedKeys(res.named) {
		line := fmt.Sprintf("%-32s %14.6g", name, res.named[name])
		if p, ok := res.pcts[name]; ok {
			line += fmt.Sprintf("  (n=%d, %d beyond", p.N, p.Beyond)
			if !p.Firm {
				line += ", NOT FIRM: fewer than 10 beyond"
			}
			line += ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, name := range sortedKeys(res.audits) {
		fmt.Fprintf(w, "audit %-26s %v\n", name, res.audits[name])
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "failure: %s\n", n)
	}
	fmt.Fprintf(w, "%-32s %14d\n%-32s %14d (non-200 %d, of them 503 %d; wrong answers %d; errors %d)\n",
		"attempted", res.attempted, "failed", res.failed, res.non200, res.sheds, res.wrong, res.errs)
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}

	base := filepath.Join(cfg.workdir, "reports", fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, b2i(cfg.trace)))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	fr := fileReport{
		Host: host, Correct: correct, Attempted: res.attempted, Failed: res.failed,
		Failures: res.notes, Audits: res.audits, Named: res.named, Pcts: res.pcts, Metrics: metrics,
	}
	if _, err := atomicfile.Write(base+".json", func(fw io.Writer) error {
		enc := json.NewEncoder(fw)
		enc.SetIndent("", "  ")
		return enc.Encode(fr)
	}); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	if len(res.spans) > 0 {
		if err := writeSpans(base+".spans.jsonl", res.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	line, err := json.Marshal(lastLine{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
