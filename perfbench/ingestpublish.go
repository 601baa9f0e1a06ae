package main

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psd"
	"psd/internal/atomicfile"
	"psd/internal/ingest"
	"psd/internal/serve"
)

// ingest-publish: writes beside reads. An open-loop writer acknowledges
// fixed-size point batches through ingest.Ingester (WAL append + real
// fsync); a publisher goroutine, nudged every nudgeEvery batches as
// psdingest's count cadence nudges it, publishes kd-h8 versions (private
// medians, noise, OLS, v3 write, ledger charge, journal); a serve.Registry
// rescans the publish directory after each publish; and an open-loop
// reader sends single counts to the base name, which resolves to the
// newest version. It is the only workload that runs the build and the WAL,
// and on two CPUs those compete with acks and reads, so a build sped up by
// using more cores shows here as worse ack or read tails. A last phase
// runs publish cycles back to back with nothing beside them: the rate at
// which Publish turns points into a served version is the ingester's own,
// where the open-loop phase's acknowledged rate is its schedule's.

const (
	ingestName = "live"
	ingestEps  = 0.25
)

func ingestOptions(sc scale) psd.Options {
	return psd.Options{Kind: psd.KDTree, Height: sc.treeHeight, Seed: 11}
}

// timedFS is the ingest.FS seam over the real filesystem, timing every
// fsync of a WAL segment when tracing. parent names the ack span whose
// Ingest call is running, which is the only caller that syncs through the
// seam.
type timedFS struct {
	tr     *tracer
	parent atomic.Uint64
}

type timedFile struct {
	*os.File
	fs *timedFS
}

func (f *timedFile) Sync() error {
	parent := f.fs.parent.Load()
	id, start := f.fs.tr.newID(), time.Now()
	err := f.File.Sync()
	f.fs.tr.end(id, parent, parent, "ingest.fsync", start)
	return err
}

func (t *timedFS) OpenAppend(name string) (io.WriteCloser, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}
func (t *timedFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }
func (t *timedFS) Stat(name string) (iofs.FileInfo, error) { return os.Stat(name) }
func (t *timedFS) Glob(pattern string) ([]string, error)   { return filepath.Glob(pattern) }
func (t *timedFS) Rename(oldpath, newpath string) error    { return os.Rename(oldpath, newpath) }
func (t *timedFS) Remove(name string) error                { return os.Remove(name) }
func (t *timedFS) Truncate(name string, size int64) error  { return os.Truncate(name, size) }
func (t *timedFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

type ingestEnv struct {
	dir        string
	publishDir string
	fs         *timedFS
	in         *ingest.Ingester
	reg        *serve.Registry
	server     *server
	// points are every acknowledged point in WAL order, so a version's
	// build can be replayed on exactly its prefix.
	points []psd.Point
	// publishes counts Publish calls, for the audits.
	publishes int
}

// close releases the environment; closing it twice is harmless.
func (e *ingestEnv) close() error {
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
	if e.in != nil {
		errs = append(errs, e.in.Close())
	}
	e.server, e.reg, e.in = nil, nil, nil
	return errors.Join(errs...)
}

// setupIngest opens a fresh ingester, acknowledges the base points,
// publishes v1, loads it with ScanDir and starts the serving API. In the
// set-up breakdown, start covers Open, the base ingest and the server,
// build covers Publish (its build and v3 write are one call), load the
// ScanDir, and warm a few reads.
func setupIngest(tr *tracer, root string, rep int, sc scale, base []psd.Point, dom psd.Rect, warmRects []psd.Rect) (*ingestEnv, setupTimes, error) {
	var st setupTimes
	e := &ingestEnv{dir: filepath.Join(root, fmt.Sprintf("ingest-%d", rep)), fs: &timedFS{tr: tr}}
	e.publishDir = filepath.Join(e.dir, "publish")
	start := time.Now()
	var err error
	e.in, err = ingest.Open(ingest.Config{
		Name: ingestName, StateDir: filepath.Join(e.dir, "state"), PublishDir: e.publishDir,
		Domain: dom, Build: ingestOptions(sc), EpochEpsilon: ingestEps, FS: e.fs,
	})
	if err != nil {
		return nil, st, err
	}
	step := max(1, len(base)/10)
	for off := 0; off < len(base); off += step {
		b := base[off:min(off+step, len(base))]
		if _, err := e.in.Ingest(b); err != nil {
			return nil, st, errors.Join(err, e.close())
		}
		e.points = append(e.points, b...)
	}
	e.reg = serve.NewRegistry(cacheSize)
	api := &serve.API{Registry: e.reg}
	api.SetReady(true)
	if e.server, err = startServer(tr.middleware("serve.handler", api.Handler())); err != nil {
		return nil, st, errors.Join(err, e.close())
	}
	st.start = time.Since(start)

	start = time.Now()
	err = tr.timeCall("ingest.publish", 0, func() error {
		_, err := e.in.Publish(ingest.TriggerManual)
		return err
	})
	e.publishes++
	st.build = time.Since(start)
	if err != nil {
		return nil, st, errors.Join(err, e.close())
	}
	start = time.Now()
	if err := e.scan(tr); err != nil {
		return nil, st, errors.Join(err, e.close())
	}
	st.load = time.Since(start)

	start = time.Now()
	c := newClient()
	defer c.close()
	for _, q := range warmRects {
		status, body, err := c.do("GET", e.server.URL+"/v1/releases/"+ingestName+"/count?"+rectQuery(q), nil)
		if err == nil && status != 200 {
			err = fmt.Errorf("HTTP %d: %.200s", status, body)
		}
		if err != nil {
			return nil, st, errors.Join(fmt.Errorf("warming: %w", err), e.close())
		}
	}
	st.warm = time.Since(start)
	return e, st, nil
}

// scan rescans the publish directory, as psdserve's watch-dir reload does.
func (e *ingestEnv) scan(tr *tracer) error {
	return tr.timeCall("serve.scan", 0, func() error {
		_, _, err := e.reg.ScanDir(e.publishDir)
		return err
	})
}

type publishRecord struct {
	wall time.Duration
	res  *ingest.PublishResult
	err  error
}

type ingestPhase struct {
	acks     []opTiming
	ackErrs  []error
	reads    []opTiming
	readResp []response
	rects    []psd.Rect
	pubs     []publishRecord
	scanErrs []error
	cpu      time.Duration
	// ackElapsed runs from the phase start to the last acknowledgement.
	ackElapsed time.Duration
	before     ingest.Stats
	after      ingest.Stats
}

// ingestWriter is the stream of a phase's writer batches.
func ingestWriter(data []psd.Point, dom psd.Rect, seed int64, ph int) *pointGen {
	return newPointGen(data, dom, seed, streamIngestPts+1+uint64(ph))
}

// ingestInputs draws a phase's writer schedule, its reader schedule and
// the reader's rectangles.
func ingestInputs(seed int64, ph int, sc scale, dom psd.Rect, d time.Duration) (ackDue, readDue []time.Duration, rects []psd.Rect) {
	ackDue = fixedSchedule(seed, streamIngestDue+uint64(ph), sc.ingestRate, d)
	readDue = poissonSchedule(seed, streamReadDue+uint64(ph), sc.readRate, d)
	return ackDue, readDue, newRectGen(dom, seed, streamReadRects+uint64(ph)).take(len(readDue))
}

// runIngestPhase runs the writer, publisher and reader for d.
func (e *ingestEnv) runIngestPhase(tr *tracer, clients []*client, seed int64, ph int, sc scale, data []psd.Point, dom psd.Rect, d time.Duration) *ingestPhase {
	ackDue, readDue, rects := ingestInputs(seed, ph, sc, dom, d)
	pts := ingestWriter(data, dom, seed, ph).take(len(ackDue) * sc.ingestBatch)
	p := &ingestPhase{rects: rects, ackErrs: make([]error, len(ackDue)), readResp: make([]response, len(readDue))}
	urls := make([]string, len(readDue))
	for i, q := range p.rects {
		urls[i] = e.server.URL + "/v1/releases/" + ingestName + "/count?" + rectQuery(q)
	}

	// The publisher goroutine coalesces nudges the way psdingest's does: a
	// one-slot channel, so a nudge during a publish queues at most one more.
	nudge := make(chan struct{}, 1)
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for range nudge {
			id, start := tr.newID(), time.Now()
			res, err := e.in.Publish(ingest.TriggerInterval)
			wall := time.Since(start)
			tr.end(id, 0, 0, "ingest.publish", start)
			p.pubs = append(p.pubs, publishRecord{wall: wall, res: res, err: err})
			if err == nil {
				p.scanErrs = append(p.scanErrs, e.scan(tr))
			}
		}
	}()

	p.before = e.in.Stats()
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.reads = openLoop(readDue, len(clients), func(w, i int) {
			id, start := tr.newID(), time.Now()
			url := urls[i]
			if id != 0 {
				url += "&bt=" + strconv.FormatUint(id, 10)
			}
			status, body, err := clients[w].do("GET", url, nil)
			tr.end(id, 0, id, "client", start)
			p.readResp[i] = response{status: status, body: body, err: err}
		})
	}()
	t0 := time.Now()
	p.acks = openLoop(ackDue, 1, func(_, i int) {
		b := pts[i*sc.ingestBatch : (i+1)*sc.ingestBatch]
		id, start := tr.newID(), time.Now()
		e.fs.parent.Store(id)
		_, err := e.in.Ingest(b)
		tr.end(id, 0, id, "ingest.ack", start)
		p.ackErrs[i] = err
		if err == nil {
			e.points = append(e.points, b...)
		}
		if (i+1)%sc.nudgeEvery == 0 {
			select {
			case nudge <- struct{}{}:
			default:
			}
		}
	})
	p.ackElapsed = time.Since(t0)
	wg.Wait()
	close(nudge)
	<-pubDone
	p.cpu = cpuTime() - cpu0
	p.after = e.in.Stats()
	e.publishes += len(p.pubs)
	return p
}

// check judges the phase's acks, publishes and reads. A read is compared
// with an oracle slab of the version its response names.
func (p *ingestPhase) check(res *result, e *ingestEnv, orc *oracle) (ackLat, readLat []float64) {
	for i, tm := range p.acks {
		res.attempted++
		switch {
		case !tm.sent:
			res.note("ack %d: never sent: the writer fell more than %v behind", i, maxBehind)
		case p.ackErrs[i] != nil:
			res.errs++
			res.note("ack %d: %v", i, p.ackErrs[i])
		default:
			ackLat = append(ackLat, ms(tm.lat))
			continue
		}
		ackLat = append(ackLat, math.Inf(1))
	}
	for i, pub := range p.pubs {
		res.attempted++
		if pub.err != nil {
			res.errs++
			res.note("publish %d: %v", i, pub.err)
		}
	}
	for i, err := range p.scanErrs {
		if err != nil {
			res.note("scan after publish %d: %v", i, err)
		}
	}
	for i, tm := range p.reads {
		what := fmt.Sprintf("read %d", i)
		if !tm.sent {
			res.attempted++
			res.note("%s: never sent: the reader fell more than %v behind", what, maxBehind)
			readLat = append(readLat, math.Inf(1))
			continue
		}
		failed := res.failed
		if reply, ok := res.decodeCount(what, p.readResp[i]); ok {
			res.checkVersioned(what, reply, e.publishDir, orc, p.rects[i])
		}
		v := ms(tm.lat)
		if res.failed > failed {
			v = math.Inf(1)
		}
		readLat = append(readLat, v)
	}
	return ackLat, readLat
}

// runPublishRate has the publisher alone run sc.publishCycles publish
// cycles back to back, with no writer or reader beside them: each cycle
// acknowledges one batch, publishes a version over every point so far and
// rescans the publish directory. A fixed number of cycles, rather than a
// fixed time, keeps the number of versions the registry holds, and so the
// peak RSS, the same from run to run. It returns the median, across
// cycles, of the points a version covers per second of its Publish call.
// An error counts as a failure.
func (e *ingestEnv) runPublishRate(res *result, seed int64, ph int, sc scale, data []psd.Point, dom psd.Rect) float64 {
	writer := ingestWriter(data, dom, seed, ph)
	var rates []float64
	for range sc.publishCycles {
		res.attempted++
		b := writer.take(sc.ingestBatch)
		if _, err := e.in.Ingest(b); err != nil {
			res.errs++
			res.note("publish cycle: ingesting: %v", err)
			continue
		}
		e.points = append(e.points, b...)
		// Each cycle starts from a collected heap, so it pays for its own
		// garbage, not for the collection of the cycles before it.
		runtime.GC()
		t0 := time.Now()
		pub, err := e.in.Publish(ingest.TriggerManual)
		wall := time.Since(t0)
		if err != nil {
			res.errs++
			res.note("publish cycle: %v", err)
			continue
		}
		e.publishes++
		rates = append(rates, float64(pub.Points)/wall.Seconds())
		if err := e.scan(nil); err != nil {
			res.errs++
			res.note("publish cycle: scan: %v", err)
		}
	}
	return median(rates)
}

// checkVersioned compares a read of the base name with the version of it
// the response says answered.
func (t *tally) checkVersioned(what string, reply countReply, publishDir string, orc *oracle, q psd.Rect) {
	if !strings.HasPrefix(reply.Release, ingestName+"@v") {
		t.wrong++
		t.note("%s: answered by %q, not a version of %q", what, reply.Release, ingestName)
		return
	}
	slab, err := orc.slab(filepath.Join(publishDir, reply.Release+".bin"))
	if err != nil {
		t.wrong++
		t.note("%s: %v", what, err)
		return
	}
	if want := slab.Count(q); !sameBits(reply.Count, want) {
		t.wrong++
		t.note("%s: served %s=%v, oracle %v", what, reply.Release, reply.Count, want)
	}
}

// audit checks the ingester's durable state after a run: every published
// version rebuilds bit-identically from the WAL, the ledger charged
// exactly one epoch per published version, and the WAL holds exactly the
// acknowledged points.
func (e *ingestEnv) audit(res *result) error {
	checks, err := e.in.Verify()
	if err != nil {
		return err
	}
	bad := 0
	for _, c := range checks {
		if !c.OK {
			bad++
		}
	}
	auditIngest(res, e.in.Stats(), checks, bad, uint64(len(e.points)), e.publishes)
	return nil
}

// auditIngest is audit's judgement, separate so tests can feed it state
// with a lost acknowledgement or a mis-charged ledger.
func auditIngest(res *result, st ingest.Stats, checks []ingest.VersionCheck, bad int, acked uint64, publishes int) {
	res.audit("ingest_verify", len(checks) > 0 && bad == 0, "%d of %d versions fail the rebuild/journal/artifact comparison", bad, len(checks))
	want := float64(st.Published) * ingestEps
	res.audit("ledger_spend", math.Abs(st.Spent-want) <= 1e-9*want,
		"ledger spent %v for %d published versions of ε=%v (want %v)", st.Spent, st.Published, ingestEps, want)
	res.audit("wal_points", st.Points == acked, "WAL holds %d points, %d were acknowledged", st.Points, acked)
	res.audit("publishes", st.Published >= 2 && int(st.Published) == publishes,
		"%d versions published for %d Publish calls (want every call to publish, at least one beyond set-up)", st.Published, publishes)
}

func runIngestPublish(cfg config, dir string) (_ *result, err error) {
	sc := cfg.sc
	data, dom := dataset(sc)
	base := newPointGen(data, dom, cfg.seed, streamIngestPts).take(sc.ingestBase)
	warm := newRectGen(dom, cfg.seed, streamWarm).take(8)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := newResult()
	var reps []setupTimes
	var env *ingestEnv
	for rep := 0; rep < sc.setupReps; rep++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // garbage from the previous set-up must not be collected inside this one
		e, st, err := setupIngest(tr, dir, rep, sc, base, dom, warm)
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
		// Three quarters of the run with writes beside publishes and
		// reads, then the publisher alone.
		settle()
		p := env.runIngestPhase(nil, clients, cfg.seed, 0, sc, data, dom, cfg.seconds*3/4)
		settle()
		res.e2e["work_per_s"] = env.runPublishRate(res, cfg.seed, 1, sc, data, dom)
		res.named["solo_publish_points_per_s"] = res.e2e["work_per_s"]
		if err := recordPeakRSS(res); err != nil {
			return nil, err
		}
		ackLat, readLat := p.check(res, env, orc)
		if err := env.audit(res); err != nil {
			return nil, err
		}
		ingestNamed(res, p, ackLat, readLat)
		return res, nil
	}

	// Traced run: an untraced phase, then a traced phase on a fresh set-up
	// (the ingester's state grows, so both start from the same point).
	tr.on.Store(false)
	plain := env.runIngestPhase(tr, clients, cfg.seed, 0, sc, data, dom, cfg.seconds/2)
	plainAck, _ := plain.check(res, env, orc)
	if err := env.audit(res); err != nil {
		return nil, err
	}
	if err := env.close(); err != nil {
		return nil, err
	}
	tr.on.Store(true)
	if env, _, err = setupIngest(tr, dir, sc.setupReps, sc, base, dom, warm); err != nil {
		return nil, err
	}
	skip := len(tr.snapshot())
	traced := env.runIngestPhase(tr, clients, cfg.seed, 2, sc, data, dom, cfg.seconds/2)
	tr.on.Store(false)
	ackLat, readLat := traced.check(res, env, orc)
	if err := env.audit(res); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	res.spans = spans
	artifactLayers(res, spans, orc)
	ingestLayers(res, env, traced, spans[skip:], sc, dom)
	res.audit("one_fsync_per_ack", res.layer["ingest.fsyncs_per_ack"] == 1,
		"%v WAL fsyncs per acknowledged batch, want exactly 1", res.layer["ingest.fsyncs_per_ack"])
	res.audit("traced_publish", len(traced.pubs) > 0, "no publish ran in the traced phase")
	plainP50 := latencyPctls(res, "untraced_ingest_ack", plainAck)
	opLatency(res, "untraced_ingest_ack")
	ingestNamed(res, traced, ackLat, readLat)
	res.layer["bench.trace_overhead_pct"] = 100 * ratio(res.named["ingest_ack_p50_ms"]-plainP50, plainP50)
	res.layer["proc.cpu_us_per_op"] = ratio(us(traced.cpu), float64(len(traced.acks)+len(traced.reads)+len(traced.pubs)))
	res.layer["bench.read_p50_ms"] = res.named["read_p50_ms"]
	res.layer["bench.read_p99_ms"] = res.named["read_p99_ms"]
	res.layer["bench.publish_p50_s"] = res.named["publish_p50_s"]
	genLag(res, append(append([]opTiming(nil), traced.acks...), traced.reads...))
	return res, nil
}

// ingestNamed records the workload's end-to-end figures under their own
// names.
func ingestNamed(res *result, p *ingestPhase, ackLat, readLat []float64) {
	latencyPctls(res, "ingest_ack", ackLat)
	latencyPctls(res, "read", readLat)
	var walls, rates []float64
	for _, pub := range p.pubs {
		if pub.err == nil {
			walls = append(walls, pub.wall.Seconds())
			rates = append(rates, float64(pub.res.Points)/pub.wall.Seconds())
		}
	}
	res.named["publishes"] = float64(len(walls))
	res.named["ingest_points_per_s"] = ratio(float64(p.after.Points-p.before.Points), p.ackElapsed.Seconds())
	res.named["publish_p50_s"] = median(walls)
	res.named["publish_points_per_s"] = median(rates)
}

// ingestLayers fills the ingest tier's per-layer metrics from the traced
// phase. Build and write inside Publish cannot be wrapped, so each
// version's build and v3 write are replayed on the same point prefix and
// seed; the rest of the publish span is journal, ledger, CRC and rename.
func ingestLayers(res *result, e *ingestEnv, p *ingestPhase, spans []span, sc scale, dom psd.Rect) {
	d, self := durations(spans), selfTimes(spans)
	res.layer["ingest.fsync_us_p50"] = percentile(durationsUs(d["ingest.fsync"]), 0.50).Value
	res.layer["ingest.fsync_us_p99"] = percentile(durationsUs(d["ingest.fsync"]), 0.99).Value
	res.layer["ingest.fsyncs_per_ack"] = ratio(float64(countChildren(spans, "ingest.ack", "ingest.fsync")), float64(len(d["ingest.ack"])))
	res.layer["ingest.wal_bytes_per_point"] = ratio(float64(p.after.WALBytes-p.before.WALBytes), float64(p.after.Points-p.before.Points))
	res.layer["ingest.ack_self_us_p50"] = percentile(durationsUs(self["ingest.ack"]), 0.50).Value
	var loads []time.Duration
	for _, s := range d["serve.scan"] {
		loads = append(loads, s)
	}
	res.layer["serve.load_ms"] = meanMs(loads)

	var build, write, other, points []float64
	replay := filepath.Join(e.dir, "replay.bin")
	for _, pub := range p.pubs {
		if pub.err != nil {
			continue
		}
		opts := ingestOptions(sc)
		opts.Seed, opts.Epsilon = pub.res.Seed, pub.res.Eps
		start := time.Now()
		tree, err := psd.Build(e.points[:pub.res.Points], dom, opts)
		b := time.Since(start)
		if err != nil {
			res.note("replaying build of v%d: %v", pub.res.Version, err)
			continue
		}
		start = time.Now()
		_, err = atomicfile.Write(replay, tree.WriteBinaryV3Release)
		w := time.Since(start)
		if err != nil {
			res.note("replaying write of v%d: %v", pub.res.Version, err)
			continue
		}
		build, write = append(build, ms(b)), append(write, ms(w))
		other = append(other, ms(pub.wall-b-w))
		points = append(points, float64(pub.res.Points))
	}
	res.layer["ingest.publish_build_ms"] = median(build)
	res.layer["ingest.publish_write_ms"] = median(write)
	res.layer["ingest.publish_other_ms"] = median(other)
	res.layer["ingest.publish_points"] = median(points)
	res.layer["core.build_ms"] = median(build)
	res.layer["core.write_v3_ms"] = median(write)
	handler := durations(spans)["serve.handler"]
	res.layer["serve.handler_us_p50"] = percentile(durationsUs(handler), 0.50).Value
	res.layer["serve.handler_us_p99"] = percentile(durationsUs(handler), 0.99).Value
}

// countChildren counts spans of layer child whose parent is a span of
// layer parent.
func countChildren(spans []span, parent, child string) int {
	ids := make(map[uint64]bool)
	for _, s := range spans {
		if s.Layer == parent {
			ids[s.ID] = true
		}
	}
	n := 0
	for _, s := range spans {
		if s.Layer == child && ids[s.Parent] {
			n++
		}
	}
	return n
}
