package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"psd"
	"psd/internal/cluster"
	"psd/internal/rng"
	"psd/internal/serve"
)

// count-hot: single counts at fixed open-loop arrival rates through
// cluster.Proxy to one serve.API replica holding four v3 releases. Every
// rectangle comes from a per-release pool smaller than the answer cache,
// warmed before timing, so the request path (loopback HTTP, the proxy hop,
// URL parsing, JSON encoding, the cache lookup) does nearly all the work
// and the query engine almost none. One replica only: the ring hashes
// backend URLs, and loopback ports change from run to run.

func countHotSpecs(sc scale) []releaseSpec {
	h := sc.treeHeight
	return []releaseSpec{
		{fmt.Sprintf("quadtree-h%d", sc.quadHeight), psd.Options{Kind: psd.QuadtreeKind, Height: sc.quadHeight, Epsilon: 0.5, Seed: 1}},
		{fmt.Sprintf("kd-h%d", h), psd.Options{Kind: psd.KDTree, Height: h, Epsilon: 0.5, Seed: 2}},
		{fmt.Sprintf("privtree-h%d", h), psd.Options{Kind: psd.PrivTreeKind, Height: h, Epsilon: 0.5, Seed: 3}},
		{fmt.Sprintf("hilbert-r-h%d", h), psd.Options{Kind: psd.HilbertRTree, Height: h, Epsilon: 0.5, Seed: 4}},
	}
}

type countHotEnv struct {
	names   []string
	paths   []string
	reg     *serve.Registry
	proxy   *cluster.Proxy
	replica *server
	front   *server
}

func (e *countHotEnv) close() error {
	if e == nil {
		return nil
	}
	var errs []error
	if e.front != nil {
		errs = append(errs, e.front.close())
	}
	if e.replica != nil {
		errs = append(errs, e.replica.close())
	}
	closeDefaultTransport()
	if e.reg != nil {
		errs = append(errs, closeRegistry(e.reg))
	}
	e.front, e.replica, e.reg = nil, nil, nil
	return errors.Join(errs...)
}

// setupCountHot builds and writes the four releases, loads them into a
// fresh registry, starts the replica and the proxy, and warms every pooled
// answer into the cache with one batch per release through the proxy.
// beforeLoad, when not nil, runs on the written artifacts before any is
// loaded, outside the set-up's timing.
func setupCountHot(tr *tracer, dir string, sc scale, pts []psd.Point, dom psd.Rect, pools [][]psd.Rect, beforeLoad func(paths []string) error) (*countHotEnv, setupTimes, error) {
	var st setupTimes
	e := &countHotEnv{}
	for _, spec := range countHotSpecs(sc) {
		path, err := buildRelease(tr, dir, spec, pts, dom, &st)
		if err != nil {
			return nil, st, err
		}
		e.names = append(e.names, spec.name)
		e.paths = append(e.paths, path)
	}
	if beforeLoad != nil {
		if err := beforeLoad(e.paths); err != nil {
			return nil, st, err
		}
	}
	e.reg = serve.NewRegistry(cacheSize)
	for i, name := range e.names {
		if err := loadRelease(tr, e.reg, name, e.paths[i], &st); err != nil {
			return nil, st, errors.Join(err, e.close())
		}
	}
	start := time.Now()
	api := &serve.API{Registry: e.reg}
	api.SetReady(true)
	var err error
	if e.replica, err = startServer(tr.middleware("serve.handler", api.Handler())); err != nil {
		return nil, st, errors.Join(err, e.close())
	}
	e.proxy = cluster.NewProxy([]string{e.replica.URL}, 0)
	e.proxy.AttemptTimeout = 10 * time.Second // psdproxy's default
	e.proxy.SetReady(true)
	if e.front, err = startServer(tr.middleware("cluster.proxy", e.proxy.Handler())); err != nil {
		return nil, st, errors.Join(err, e.close())
	}
	st.start = time.Since(start)

	start = time.Now()
	c := newClient()
	defer c.close()
	for i, name := range e.names {
		status, body, err := c.do("POST", e.front.URL+"/v1/releases/"+name+"/batch", appendBatchBody(nil, pools[i]))
		if err == nil && status != 200 {
			err = fmt.Errorf("HTTP %d: %.200s", status, body)
		}
		if err != nil {
			return nil, st, errors.Join(fmt.Errorf("warming %s: %w", name, err), e.close())
		}
	}
	st.warm = time.Since(start)
	return e, st, nil
}

// countPhase is one open-loop phase's requests and what came back.
type countPhase struct {
	rel, idx  []int // release and pool index of each request
	timings   []opTiming
	responses []response
	elapsed   time.Duration
	cpu       time.Duration
}

// runCountPhase offers single counts at rate for d. Phase ph selects the
// seeded streams, so every phase of a run sends different traffic.
func (e *countHotEnv) runCountPhase(tr *tracer, clients []*client, seed int64, ph int, pools [][]psd.Rect, rate float64, d time.Duration) *countPhase {
	due, rel, idx := countSchedule(seed, ph, pools, rate, d)
	p := &countPhase{rel: rel, idx: idx, responses: make([]response, len(due))}
	urls := make([]string, len(due))
	for i := range due {
		urls[i] = e.front.URL + "/v1/releases/" + e.names[rel[i]] + "/count?" + rectQuery(pools[rel[i]][idx[i]])
	}
	cpu0, t0 := cpuTime(), time.Now()
	p.timings = openLoop(due, len(clients), func(w, i int) {
		id, start := tr.newID(), time.Now()
		url := urls[i]
		if id != 0 {
			url += "&bt=" + strconv.FormatUint(id, 10)
		}
		status, body, err := clients[w].do("GET", url, nil)
		tr.end(id, 0, id, "client", start)
		p.responses[i] = response{status: status, body: body, err: err}
	})
	p.elapsed, p.cpu = time.Since(t0), cpuTime()-cpu0
	return p
}

// countSchedule draws a phase's arrival times and, for each request, the
// release and pooled rectangle it asks for, uniformly.
func countSchedule(seed int64, ph int, pools [][]psd.Rect, rate float64, d time.Duration) (due []time.Duration, rel, idx []int) {
	due = poissonSchedule(seed, streamCountArrive+uint64(ph), rate, d)
	rel, idx = make([]int, len(due)), make([]int, len(due))
	pick := rng.At(seed, streamCountPick+uint64(ph), saltPick)
	for i := range due {
		rel[i] = pick.Intn(len(pools))
		idx[i] = pick.Intn(len(pools[rel[i]]))
	}
	return due, rel, idx
}

// countPools draws each release's pool of rectangles.
func countPools(seed int64, sc scale, dom psd.Rect) [][]psd.Rect {
	pools := make([][]psd.Rect, len(countHotSpecs(sc)))
	for i := range pools {
		pools[i] = newRectGen(dom, seed, streamCountPool+uint64(i)).take(sc.poolPerRelease)
	}
	return pools
}

// check judges every sent request against the oracle's answers and
// returns the latencies in ms, timed from when each request was due and
// from when the generator released it; a failed request counts as
// infinitely late.
func (p *countPhase) check(t *tally, names []string, want [][]float64) (lat, fromRelease []float64, sent int) {
	for i, tm := range p.timings {
		if !tm.sent {
			continue
		}
		sent++
		failedBefore := t.failed
		t.checkCount(names[p.rel[i]], p.responses[i], names[p.rel[i]], want[p.rel[i]][p.idx[i]])
		v, r := ms(tm.lat), ms(tm.lat-tm.lag)
		if t.failed > failedBefore {
			v, r = math.Inf(1), math.Inf(1)
		}
		lat, fromRelease = append(lat, v), append(fromRelease, r)
	}
	return lat, fromRelease, sent
}

// runClosedCounts has both clients send single counts back to back for d,
// each drawing pooled rectangles from its own seeded stream: the rate two
// connections sustain when nothing waits on a schedule.
func (e *countHotEnv) runClosedCounts(clients []*client, seed int64, pools [][]psd.Rect, want [][]float64, d time.Duration, t *tally) (float64, []float64) {
	type asked struct {
		rel, idx int
		r        response
	}
	picks := make([]rng.Source, len(clients))
	asks := make([][]asked, len(clients))
	for c := range clients {
		picks[c] = rng.At(seed, streamCountClosed+uint64(c), saltPick)
	}
	ops := closedLoop(len(clients), d, func(w, _ int) (time.Duration, int) {
		r := picks[w].Intn(len(pools))
		k := picks[w].Intn(len(pools[r]))
		url := e.front.URL + "/v1/releases/" + e.names[r] + "/count?" + rectQuery(pools[r][k])
		start := time.Now()
		status, body, err := clients[w].do("GET", url, nil)
		lat := time.Since(start)
		asks[w] = append(asks[w], asked{r, k, response{status: status, body: body, err: err}})
		return lat, 1
	})
	var lat []float64
	for c, client := range asks {
		for j, a := range client {
			t.checkCount(e.names[a.rel], a.r, e.names[a.rel], want[a.rel][a.idx])
			lat = append(lat, ms(ops[c][j].lat))
		}
	}
	return closedRate(ops, d), lat
}

func runCountHot(cfg config, dir string) (_ *result, err error) {
	sc := cfg.sc
	pts, dom := dataset(sc)
	pools := countPools(cfg.seed, sc, dom)
	nrel := len(pools)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := newResult()
	orc := newOracle(tr)
	// The oracle answers every pooled rectangle from the last set-up's
	// artifacts before the registry maps them, and unmaps them again, so
	// its pages never add to the servers' in peak_rss_mb.
	want := make([][]float64, nrel)
	answer := func(paths []string) error {
		for i, path := range paths {
			s, err := orc.slab(path)
			if err != nil {
				return err
			}
			want[i] = make([]float64, len(pools[i]))
			for k, q := range pools[i] {
				want[i][k] = s.Count(q)
			}
		}
		return orc.close()
	}
	var reps []setupTimes
	var env *countHotEnv
	defer func() { err = errors.Join(err, orc.close(), env.close()) }()
	for rep := 0; rep < sc.countSetupReps; rep++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // garbage from the previous set-up must not be collected inside this one
		var beforeLoad func([]string) error
		if rep == sc.countSetupReps-1 {
			beforeLoad = answer
		}
		e, st, err := setupCountHot(tr, dir, sc, pts, dom, pools, beforeLoad)
		if err != nil {
			return nil, err
		}
		env, reps = e, append(reps, st)
	}
	setupSummary(reps, res)

	clients := []*client{newClient(), newClient()}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	if cfg.trace {
		return countHotTraced(cfg, tr, env, clients, pools, want, orc, res)
	}

	// Three tenths of the run at the reference rate, half closed-loop, a
	// fifth climbing the rate ladder.
	settle()
	ref := env.runCountPhase(nil, clients, cfg.seed, 0, pools, sc.countRefRate, cfg.seconds*3/10)
	lat, refReleased, refSent := ref.check(&res.tally, env.names, want)
	if refSent < len(ref.timings) {
		res.note("reference rate %.0f/s fell more than %v behind schedule", sc.countRefRate, maxBehind)
	}
	latencyPctls(res, "count", lat)

	var closedLat []float64
	res.e2e["work_per_s"], closedLat = env.runClosedCounts(clients, cfg.seed, pools, want, cfg.seconds/2, &res.tally)
	latencyPctls(res, "count_closed", closedLat)
	res.named["count_closed_rps"] = res.e2e["work_per_s"]

	// The ladder judges each rung by its p99 timed from release: a
	// generator's timer overshoot, which grows with the rate, must not
	// end the ladder; queueing behind busy clients still counts.
	rung := (cfg.seconds / 5) / time.Duration(len(sc.countLadder))
	limit := ms(sc.countP99Limit)
	passRate := float64(refSent) / ref.elapsed.Seconds()
	refP99 := percentile(refReleased, 0.99)
	res.named["count_released_p99_ms"], res.pcts["count_released_p99_ms"] = refP99.Value, refP99
	passP99 := refP99.Value
	best := passRate
	if passP99 > limit {
		best = 0
	}
	for k, rate := range sc.countLadder {
		if best == 0 {
			break
		}
		ph := env.runCountPhase(nil, clients, cfg.seed, 1+k, pools, rate, rung)
		_, released, sent := ph.check(&res.tally, env.names, want)
		p99 := percentile(released, 0.99)
		name := fmt.Sprintf("ladder_%05.0f_p99_ms", rate)
		res.named[name], res.pcts[name] = p99.Value, p99
		if sent < len(ph.timings) || p99.Value > limit {
			best = kneeRate(passRate, passP99, rate, p99.Value, limit)
			break
		}
		passRate, passP99 = float64(sent)/ph.elapsed.Seconds(), p99.Value
		best = passRate
	}
	res.named["count_max_rps"] = best
	return res, recordPeakRSS(res)
}

// kneeRate places the rate at which p99 reaches limit between the last
// ladder rung that met it (achieved rate passRate, p99 passP99) and the
// first that did not, linearly in log p99. A rung's p99 is a noisy tail of
// a second of traffic; interpolating across the knee, where p99 climbs
// steeply, turns that noise into a small error in the rate instead of a
// whole-rung jump. A failing rung with no passing rung below it reports 0.
func kneeRate(passRate, passP99, failRate, failP99, limit float64) float64 {
	if passRate == 0 {
		return 0
	}
	if math.IsInf(failP99, 1) || failP99 <= passP99 || passP99 <= 0 {
		return passRate
	}
	f := (math.Log(limit) - math.Log(passP99)) / (math.Log(failP99) - math.Log(passP99))
	return passRate + f*(failRate-passRate)
}

// countHotTraced measures the reference rate twice, first with span
// recording off and then on, derives the per-layer metrics from the traced
// half, and audits the workload's design: every count served from the
// cache, every request through the proxy.
func countHotTraced(cfg config, tr *tracer, env *countHotEnv, clients []*client, pools [][]psd.Rect, want [][]float64, orc *oracle, res *result) (*result, error) {
	sc := cfg.sc
	tr.on.Store(false)
	plain := env.runCountPhase(tr, clients, cfg.seed, 0, pools, sc.countRefRate, cfg.seconds/2)
	plainLat, _, _ := plain.check(&res.tally, env.names, want)

	rels := make([]*serve.Release, len(env.names))
	for i, n := range env.names {
		rels[i], _ = env.reg.Get(n)
	}
	before, proxyBefore := releaseCounters(rels...), env.proxy.Stats()
	shedsBefore, err := serverSheds(env.replica.URL)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	traced := env.runCountPhase(tr, clients, cfg.seed, 1, pools, sc.countRefRate, cfg.seconds/2)
	tr.on.Store(false)
	d, proxyAfter := releaseCounters(rels...).minus(before), env.proxy.Stats()
	tracedLat, _, sent := traced.check(&res.tally, env.names, want)

	spans := tr.snapshot()
	res.spans = spans
	self := selfTimes(spans)
	res.layer["cluster.proxy_self_us_p50"] = percentile(durationsUs(self["cluster.proxy"]), 0.50).Value
	res.layer["cluster.proxy_self_us_p99"] = percentile(durationsUs(self["cluster.proxy"]), 0.99).Value
	res.layer["cluster.retries_per_1k"] = ratio(1000*float64(proxyAfter.Retries-proxyBefore.Retries),
		float64(proxyAfter.Requests-proxyBefore.Requests))
	serveLayers(res, spans, d)
	shedsAfter, err := serverSheds(env.replica.URL)
	if err != nil {
		return nil, err
	}
	res.layer["serve.shed_per_1k"] = ratio(1000*float64(shedsAfter-shedsBefore), float64(d.requests))

	res.audit("cache_hot", res.layer["serve.cache_hit_ratio"] >= 0.99,
		"cache hit ratio %v, want about 1: the pooled answers no longer stay cached", res.layer["serve.cache_hit_ratio"])
	res.audit("proxied", len(self["cluster.proxy"]) > 0 && len(self["cluster.proxy"]) == len(durations(spans)["serve.handler"]),
		"%d proxy spans for %d handler spans: requests bypassed cluster.Proxy", len(self["cluster.proxy"]), len(durations(spans)["serve.handler"]))

	// Replay the traced phase's rectangles into each release's engine.
	slabs := make([]*psd.Slab, len(env.paths))
	for i, path := range env.paths {
		if slabs[i], err = orc.slab(path); err != nil {
			return nil, err
		}
	}
	qs := make([][]psd.Rect, len(pools))
	for i, tm := range traced.timings {
		if tm.sent {
			r := traced.rel[i]
			qs[r] = append(qs[r], pools[r][traced.idx[i]])
		}
	}
	coreLayers(res, slabs, qs)
	artifactLayers(res, spans, orc)

	plainP50 := latencyPctls(res, "untraced_count", plainLat)
	tracedP50 := latencyPctls(res, "count", tracedLat)
	opLatency(res, "untraced_count")
	res.layer["bench.trace_overhead_pct"] = 100 * ratio(tracedP50-plainP50, plainP50)
	res.layer["proc.cpu_us_per_op"] = ratio(us(traced.cpu), float64(sent))
	genLag(res, traced.timings)
	return res, nil
}
