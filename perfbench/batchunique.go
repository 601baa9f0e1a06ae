package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"psd"
	"psd/internal/serve"
)

// batch-unique: a closed loop of two clients posting batches of freshly
// drawn rectangles, in the paper's three shapes, straight to serve.API
// with no proxy. No rectangle repeats, so every one misses the answer
// cache, which fills and then evicts: the node-major engine does most of
// the work and JSON batch decoding and encoding the rest. A cache-hit or
// proxy optimisation must show no gain here.

func batchSpec(sc scale) releaseSpec {
	return releaseSpec{fmt.Sprintf("kd-h%d", sc.treeHeight), psd.Options{Kind: psd.KDTree, Height: sc.treeHeight, Epsilon: 0.5, Seed: 2}}
}

type batchEnv struct {
	name   string
	path   string
	reg    *serve.Registry
	rel    *serve.Release
	server *server
}

func (e *batchEnv) close() error {
	if e == nil {
		return nil
	}
	var errs []error
	if e.server != nil {
		errs = append(errs, e.server.close())
	}
	if e.reg != nil {
		errs = append(errs, closeRegistry(e.reg))
	}
	e.server, e.reg = nil, nil
	return errors.Join(errs...)
}

func setupBatch(tr *tracer, dir string, sc scale, seed int64, pts []psd.Point, dom psd.Rect) (*batchEnv, setupTimes, error) {
	var st setupTimes
	spec := batchSpec(sc)
	path, err := buildRelease(tr, dir, spec, pts, dom, &st)
	if err != nil {
		return nil, st, err
	}
	e := &batchEnv{name: spec.name, path: path, reg: serve.NewRegistry(cacheSize)}
	if err := loadRelease(tr, e.reg, e.name, path, &st); err != nil {
		return nil, st, errors.Join(err, e.close())
	}
	e.rel, _ = e.reg.Get(e.name)
	start := time.Now()
	api := &serve.API{Registry: e.reg}
	api.SetReady(true)
	if e.server, err = startServer(tr.middleware("serve.handler", api.Handler())); err != nil {
		return nil, st, errors.Join(err, e.close())
	}
	st.start = time.Since(start)

	start = time.Now()
	c := newClient()
	defer c.close()
	warm := newRectGen(dom, seed, streamWarm)
	for i := 0; i < 2; i++ {
		status, body, err := c.do("POST", e.server.URL+"/v1/releases/"+e.name+"/batch", appendBatchBody(nil, warm.take(sc.batchRects)))
		if err == nil && status != 200 {
			err = fmt.Errorf("HTTP %d: %.200s", status, body)
		}
		if err != nil {
			return nil, st, errors.Join(fmt.Errorf("warming %s: %w", e.name, err), e.close())
		}
	}
	st.warm = time.Since(start)
	return e, st, nil
}

// batchResult is one batch request's outcome: its status, and the count
// and answerSum of the answers it carried.
type batchResult struct {
	r      response
	n      int
	sum    uint64
	decErr error
}

type batchPhase struct {
	perClient [][]batchResult
	ops       [][]closedOp
	cpu       time.Duration
}

// runBatchPhase runs the two clients' closed loop for d. Drawing and
// encoding each request and decoding its answer are harness work, outside
// the timed span.
func (e *batchEnv) runBatchPhase(tr *tracer, clients []*client, seed int64, ph int, dom psd.Rect, n int, d time.Duration) *batchPhase {
	p := &batchPhase{perClient: make([][]batchResult, len(clients))}
	url := e.server.URL + "/v1/releases/" + e.name + "/batch"
	gens := make([]*rectGen, len(clients))
	bodies := make([][]byte, len(clients))
	for c := range clients {
		gens[c] = newRectGen(dom, seed, batchStream(ph, c))
	}
	cpu0 := cpuTime()
	p.ops = closedLoop(len(clients), d, func(c, _ int) (time.Duration, int) {
		bodies[c] = appendBatchBody(bodies[c][:0], gens[c].take(n))
		id := tr.newID()
		u := url
		if id != 0 {
			u += "?bt=" + strconv.FormatUint(id, 10)
		}
		start := time.Now()
		status, rb, err := clients[c].do("POST", u, bodies[c])
		lat := time.Since(start)
		tr.end(id, 0, id, "client", start)
		br := batchResult{r: response{status: status, body: rb, err: err}}
		if err == nil && status == 200 {
			var reply batchReply
			if br.decErr = json.Unmarshal(rb, &reply); br.decErr == nil {
				br.n, br.sum = len(reply.Counts), answerSum(reply.Counts)
			}
			br.r.body = nil
		}
		p.perClient[c] = append(p.perClient[c], br)
		return lat, br.n
	})
	p.cpu = cpuTime() - cpu0
	return p
}

func batchStream(ph, c int) uint64 { return streamBatchClient + uint64(ph*8+c) }

// check replays each client's rectangle stream into the oracle slab and
// compares every served answer bit for bit. workers is the engine's
// worker bound; the traced run passes 1 and reports the replay's cost and
// traversal counts as the core layer.
func (p *batchPhase) check(res *result, slab *psd.Slab, seed int64, ph int, dom psd.Rect, n, workers int) (lat []float64, rects int, replay time.Duration, st psd.QueryStats) {
	want := make([]float64, n)
	for c, results := range p.perClient {
		gen := newRectGen(dom, seed, batchStream(ph, c))
		for j, br := range results {
			qs := gen.take(n)
			what := fmt.Sprintf("batch c%d#%d", c, j)
			op := p.ops[c][j]
			if !res.accept(what, br.r) {
				lat = append(lat, math.Inf(1))
				continue
			}
			if br.decErr != nil {
				res.wrong++
				res.note("%s: undecodable body: %v", what, br.decErr)
				lat = append(lat, math.Inf(1))
				continue
			}
			start := time.Now()
			got := slab.CountBatchIntoWorkers(want, qs, workers)
			replay += time.Since(start)
			st.NodesVisited += got.NodesVisited
			st.NodesAdded += got.NodesAdded
			st.PartialLeaves += got.PartialLeaves
			before := res.failed
			res.checkBatch(what, br.n, br.sum, want)
			if res.failed > before {
				lat = append(lat, math.Inf(1))
				continue
			}
			rects += n
			lat = append(lat, ms(op.lat))
		}
	}
	return lat, rects, replay, st
}

func runBatchUnique(cfg config, dir string) (_ *result, err error) {
	sc := cfg.sc
	pts, dom := dataset(sc)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := newResult()
	var reps []setupTimes
	var env *batchEnv
	for rep := 0; rep < sc.setupReps; rep++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // garbage from the previous set-up must not be collected inside this one
		e, st, err := setupBatch(tr, dir, sc, cfg.seed, pts, dom)
		if err != nil {
			return nil, err
		}
		env, reps = e, append(reps, st)
	}
	orc := newOracle(tr)
	defer func() { err = errors.Join(err, orc.close(), env.close()) }()
	setupSummary(reps, res)
	clients := []*client{newClient(), newClient()}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	if !cfg.trace {
		settle()
		p := env.runBatchPhase(nil, clients, cfg.seed, 0, dom, sc.batchRects, cfg.seconds)
		if err := recordPeakRSS(res); err != nil {
			return nil, err
		}
		slab, err := orc.slab(env.path)
		if err != nil {
			return nil, err
		}
		lat, _, _, _ := p.check(res, slab, cfg.seed, 0, dom, sc.batchRects, 0)
		latencyPctls(res, "batch", lat)
		res.e2e["work_per_s"] = closedRate(p.ops, cfg.seconds)
		res.named["batch_queries_per_s"] = res.e2e["work_per_s"]
		return res, nil
	}

	tr.on.Store(false)
	plain := env.runBatchPhase(tr, clients, cfg.seed, 0, dom, sc.batchRects, cfg.seconds/2)
	before := releaseCounters(env.rel)
	shedsBefore, err := serverSheds(env.server.URL)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	traced := env.runBatchPhase(tr, clients, cfg.seed, 1, dom, sc.batchRects, cfg.seconds/2)
	tr.on.Store(false)
	d := releaseCounters(env.rel).minus(before)
	shedsAfter, err := serverSheds(env.server.URL)
	if err != nil {
		return nil, err
	}
	slab, err := orc.slab(env.path)
	if err != nil {
		return nil, err
	}
	plainLat, _, _, _ := plain.check(res, slab, cfg.seed, 0, dom, sc.batchRects, 0)
	tracedLat, rects, replay, st := traced.check(res, slab, cfg.seed, 1, dom, sc.batchRects, 1)

	spans := tr.snapshot()
	res.spans = spans
	serveLayers(res, spans, d)
	res.layer["serve.shed_per_1k"] = ratio(1000*float64(shedsAfter-shedsBefore), float64(d.requests))
	res.audit("cache_cold", d.queries > 0 && d.hits == 0, "%d cache hits in %d rectangles, want none: rectangles repeat", d.hits, d.queries)
	proxied := 0
	for _, s := range spans {
		if s.Layer == "cluster.proxy" {
			proxied++
		}
	}
	res.audit("unproxied", proxied == 0, "%d proxy spans, want none", proxied)
	res.layer["core.query_us_per_query"] = ratio(us(replay), float64(rects))
	res.layer["core.nodes_visited_per_query"] = ratio(float64(st.NodesVisited), float64(rects))
	res.layer["core.nodes_added_per_query"] = ratio(float64(st.NodesAdded), float64(rects))
	res.layer["core.partial_leaves_per_query"] = ratio(float64(st.PartialLeaves), float64(rects))
	artifactLayers(res, spans, orc)

	plainP50 := latencyPctls(res, "untraced_batch", plainLat)
	tracedP50 := latencyPctls(res, "batch", tracedLat)
	opLatency(res, "untraced_batch")
	res.layer["bench.trace_overhead_pct"] = 100 * ratio(tracedP50-plainP50, plainP50)
	res.layer["proc.cpu_us_per_op"] = ratio(us(traced.cpu), float64(len(tracedLat)))
	res.named["batch_queries_per_s"] = closedRate(traced.ops, cfg.seconds/2)
	return res, nil
}
