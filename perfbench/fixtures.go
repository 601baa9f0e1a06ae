package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"psd"
	"psd/internal/atomicfile"
	"psd/internal/serve"
)

// cacheSize is psdserve's default per-release answer cache capacity.
const cacheSize = 1 << 16

// setupTimes splits one set-up into the phases setup_s covers.
type setupTimes struct {
	build, write, load, start, warm time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.build + s.write + s.load + s.start + s.warm
}

// setupSummary is the median of several set-ups, phase by phase.
func setupSummary(reps []setupTimes, res *result) {
	pick := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = ms(f(r))
		}
		return median(xs)
	}
	res.e2e["setup_s"] = pick(setupTimes.total) / 1000
	res.layer["setup.build_ms"] = pick(func(s setupTimes) time.Duration { return s.build })
	res.layer["setup.write_v3_ms"] = pick(func(s setupTimes) time.Duration { return s.write })
	res.layer["setup.load_verify_ms"] = pick(func(s setupTimes) time.Duration { return s.load })
	res.layer["setup.start_ms"] = pick(func(s setupTimes) time.Duration { return s.start })
	res.layer["setup.warmup_ms"] = pick(func(s setupTimes) time.Duration { return s.warm })
	res.named["setup_s"] = res.e2e["setup_s"]
}

// settle readies the process and host for a timed phase: set-up garbage
// is collected now rather than inside the phase, and the set-up's writes
// reach the disk before fsync latency is measured.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// releaseSpec is one release the benchmark builds and serves.
type releaseSpec struct {
	name string
	opts psd.Options
}

// buildRelease builds spec over pts and writes it as a v3 artifact to
// dir/<name>.bin, the only format the benchmark's servers load.
func buildRelease(tr *tracer, dir string, spec releaseSpec, pts []psd.Point, dom psd.Rect, st *setupTimes) (string, error) {
	var tree *psd.Tree
	start := time.Now()
	err := tr.timeCall("core.build", 0, func() (err error) {
		tree, err = psd.Build(pts, dom, spec.opts)
		return err
	})
	st.build += time.Since(start)
	if err != nil {
		return "", fmt.Errorf("building %s: %w", spec.name, err)
	}
	path := filepath.Join(dir, spec.name+".bin")
	start = time.Now()
	err = tr.timeCall("core.write_v3", 0, func() error {
		_, err := atomicfile.Write(path, tree.WriteBinaryV3Release)
		return err
	})
	st.write += time.Since(start)
	if err != nil {
		return "", fmt.Errorf("writing %s: %w", spec.name, err)
	}
	return path, nil
}

// loadRelease maps and verifies an artifact into reg.
func loadRelease(tr *tracer, reg *serve.Registry, name, path string, st *setupTimes) error {
	start := time.Now()
	err := tr.timeCall("serve.load", 0, func() error {
		_, err := reg.LoadFile(name, path)
		return err
	})
	st.load += time.Since(start)
	return err
}

// closeRegistry unmaps every release of reg once nothing serves it.
func closeRegistry(reg *serve.Registry) error {
	var first error
	for _, rel := range reg.List() {
		if err := rel.Slab.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closeDefaultTransport drops idle connections the proxy's default HTTP
// client keeps to backends that are gone.
func closeDefaultTransport() {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// serverSheds reads the 503 shed counter a serve.API reports on GET /stats.
func serverSheds(baseURL string) (uint64, error) {
	c := newClient()
	defer c.close()
	status, body, err := c.do("GET", baseURL+"/stats", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d", status)
	}
	if err != nil {
		return 0, fmt.Errorf("reading server stats: %w", err)
	}
	var st serve.ServerStats
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("decoding server stats: %w", err)
	}
	return st.Sheds, nil
}

// releaseDelta is the change in a release's serving counters over a phase.
type releaseDelta struct {
	requests, queries, hits, evictions uint64
	busy                               time.Duration
}

func releaseCounters(rels ...*serve.Release) releaseDelta {
	var d releaseDelta
	for _, r := range rels {
		s := r.Stats()
		d.requests += s.Requests
		d.queries += s.Queries
		d.hits += s.CacheHits
		d.evictions += s.CacheEvictions
		d.busy += time.Duration(s.MeanLatencyNs) * time.Duration(s.Requests)
	}
	return d
}

func (a releaseDelta) minus(b releaseDelta) releaseDelta {
	return releaseDelta{
		requests: a.requests - b.requests, queries: a.queries - b.queries,
		hits: a.hits - b.hits, evictions: a.evictions - b.evictions, busy: a.busy - b.busy,
	}
}

// serveLayers fills the serving tier's per-layer metrics from the handler
// spans and the releases' own counters over the traced phase.
func serveLayers(res *result, spans []span, d releaseDelta) {
	handler := durations(spans)["serve.handler"]
	res.layer["serve.handler_us_p50"] = percentile(durationsUs(handler), 0.50).Value
	res.layer["serve.handler_us_p99"] = percentile(durationsUs(handler), 0.99).Value
	var total time.Duration
	for _, h := range handler {
		total += h
	}
	q := float64(d.queries)
	res.layer["serve.codec_us_per_query"] = ratio(us(total-d.busy), q)
	res.layer["serve.release_us_per_query"] = ratio(us(d.busy), q)
	res.layer["serve.cache_hit_ratio"] = ratio(float64(d.hits), q)
	res.layer["serve.cache_evictions_per_1k"] = ratio(1000*float64(d.evictions), q)
}

// coreLayers replays rectangles into a slab's single-worker batch engine —
// the call a batch handler makes for its cache misses — and reports its
// cost and exact traversal counts per rectangle.
func coreLayers(res *result, slabs []*psd.Slab, qs [][]psd.Rect) {
	var n int
	var elapsed time.Duration
	var st psd.QueryStats
	for i, s := range slabs {
		dst := make([]float64, len(qs[i]))
		start := time.Now()
		got := s.CountBatchIntoWorkers(dst, qs[i], 1)
		elapsed += time.Since(start)
		n += len(qs[i])
		st.NodesVisited += got.NodesVisited
		st.NodesAdded += got.NodesAdded
		st.PartialLeaves += got.PartialLeaves
	}
	res.layer["core.query_us_per_query"] = ratio(us(elapsed), float64(n))
	res.layer["core.nodes_visited_per_query"] = ratio(float64(st.NodesVisited), float64(n))
	res.layer["core.nodes_added_per_query"] = ratio(float64(st.NodesAdded), float64(n))
	res.layer["core.partial_leaves_per_query"] = ratio(float64(st.PartialLeaves), float64(n))
}

// artifactLayers reports the per-release build, write, open and verify
// costs from the spans around those calls.
func artifactLayers(res *result, spans []span, o *oracle) {
	d := durations(spans)
	res.layer["core.build_ms"] = meanMs(d["core.build"])
	res.layer["core.write_v3_ms"] = meanMs(d["core.write_v3"])
	res.layer["serve.load_ms"] = meanMs(d["serve.load"])
	res.layer["core.open_v3_us"] = meanMs(o.opens) * 1000
	res.layer["core.verify_ms"] = meanMs(o.verifys)
}

func meanMs(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return ratio(ms(t), float64(len(ds)))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyPctls records a latency sample's p50, p90 and p99 in ms under
// name (count_p50_ms, ...), each with its evidence, and returns the p50.
func latencyPctls(res *result, name string, lat []float64) (p50 float64) {
	for _, q := range []struct {
		tag string
		q   float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		p := percentile(lat, q.q)
		key := name + "_" + q.tag + "_ms"
		res.named[key], res.pcts[key] = p.Value, p
	}
	return res.named[name+"_p50_ms"]
}

// opLatency reports, in a traced run, the workload's operation latency
// measured in its untraced half, as recorded under name by latencyPctls.
func opLatency(res *result, name string) {
	res.layer["bench.p50_ms"] = res.named[name+"_p50_ms"]
	res.layer["bench.p90_ms"] = res.named[name+"_p90_ms"]
	res.layer["bench.p99_ms"] = res.named[name+"_p99_ms"]
}

// recordPeakRSS reports the process's high-water resident set as
// peak_rss_mb. Workloads call it when their timed phase ends, before the
// oracle maps any artifact a second time, so the figure is the servers'
// and the set-up's, not the answer checking's.
func recordPeakRSS(res *result) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.e2e["peak_rss_mb"] = rss
	return nil
}

// genLag records how late the open-loop generator released operations.
func genLag(res *result, ts []opTiming) {
	var lags []float64
	for _, t := range ts {
		if t.sent {
			lags = append(lags, ms(t.lag))
		}
	}
	res.layer["bench.gen_lag_ms_p99"] = percentile(lags, 0.99).Value
}
