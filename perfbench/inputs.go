package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"psd"
	"psd/internal/rng"
)

// Every input the benchmark sends is drawn from an rng.At stream keyed by
// the workload seed, so one seed reproduces a run's rectangles, point
// batches and arrival schedules exactly. The stream number names the
// consumer; the salt names what is drawn.
const (
	streamCountPool   = 100 // + release index: count-hot rectangle pools
	streamCountPick   = 200 // + phase: which pooled rectangle each request asks
	streamCountArrive = 300 // + phase: count-hot arrival schedules
	streamBatchClient = 400 // + phase*8 + client: batch-unique rectangles
	streamIngestPts   = 500 // set-up points; + 1 + phase: writer batches
	streamIngestDue   = 510 // + phase: ingest arrival schedule
	streamReadRects   = 520 // + phase: ingest-publish reader rectangles
	streamReadDue     = 530 // + phase: ingest-publish reader arrivals
	streamWarm        = 600 // warm-up traffic, never timed
	streamCountClosed = 700 // + client: count-hot closed-loop picks

	saltRect    = 1
	saltArrival = 2
	saltPick    = 3
	saltPoints  = 4
)

// shape is a query rectangle's size as a fraction of the domain's width
// and height.
type shape struct{ w, h float64 }

// paperShapes are the three query shapes of the paper's experiments:
// 1%×1%, 10%×10% and 15%×0.2% of the domain.
var paperShapes = []shape{{0.01, 0.01}, {0.10, 0.10}, {0.15, 0.002}}

// rectGen draws uniformly placed rectangles inside a domain, cycling
// through the paper's shapes.
type rectGen struct {
	src rng.Source
	dom psd.Rect
	n   int
}

func newRectGen(dom psd.Rect, seed int64, stream uint64) *rectGen {
	return &rectGen{src: rng.At(seed, stream, saltRect), dom: dom}
}

func (g *rectGen) next() psd.Rect {
	s := paperShapes[g.n%len(paperShapes)]
	g.n++
	dw, dh := g.dom.Hi.X-g.dom.Lo.X, g.dom.Hi.Y-g.dom.Lo.Y
	w, h := s.w*dw, s.h*dh
	x := g.dom.Lo.X + g.src.Float64()*(dw-w)
	y := g.dom.Lo.Y + g.src.Float64()*(dh-h)
	return psd.Rect{Lo: psd.Point{X: x, Y: y}, Hi: psd.Point{X: x + w, Y: y + h}}
}

func (g *rectGen) take(n int) []psd.Rect {
	out := make([]psd.Rect, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// poissonSchedule returns the due times (offsets from the phase start) of
// an open-loop arrival process at rate per second over d: exponential
// inter-arrival gaps, so independent users are modelled rather than a
// metronome.
func poissonSchedule(seed int64, stream uint64, rate float64, d time.Duration) []time.Duration {
	src := rng.At(seed, stream, saltArrival)
	var due []time.Duration
	t := 0.0
	for {
		t += src.Exponential(rate)
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// fixedSchedule returns due times every 1/rate seconds over d, jittered by
// up to a tenth of the gap so batches do not align with timer ticks.
func fixedSchedule(seed int64, stream uint64, rate float64, d time.Duration) []time.Duration {
	src := rng.At(seed, stream, saltArrival)
	gap := float64(time.Second) / rate
	n := int(float64(d) / gap)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + 0.1*src.Float64()) * gap)
	}
	return due
}

// pointGen draws points near points of a base dataset: a uniformly chosen
// base point moved by a small Gaussian step, clamped to the domain. New
// data thus follows the base dataset's road-network skew.
type pointGen struct {
	src    rng.Source
	base   []psd.Point
	dom    psd.Rect
	sx, sy float64
}

func newPointGen(base []psd.Point, dom psd.Rect, seed int64, stream uint64) *pointGen {
	return &pointGen{
		src: rng.At(seed, stream, saltPoints), base: base, dom: dom,
		sx: 0.002 * (dom.Hi.X - dom.Lo.X), sy: 0.002 * (dom.Hi.Y - dom.Lo.Y),
	}
}

func (g *pointGen) take(n int) []psd.Point {
	out := make([]psd.Point, n)
	for i := range out {
		p := g.base[g.src.Intn(len(g.base))]
		out[i] = psd.Point{
			X: clamp(p.X+g.src.Gaussian(0, g.sx), g.dom.Lo.X, math.Nextafter(g.dom.Hi.X, g.dom.Lo.X)),
			Y: clamp(p.Y+g.src.Gaussian(0, g.sy), g.dom.Lo.Y, math.Nextafter(g.dom.Hi.Y, g.dom.Lo.Y)),
		}
	}
	return out
}

func clamp(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }

// rectQuery is the URL query string of a single count for q. 'g' with
// precision -1 is the shortest form that parses back to the same bits, so
// the server answers exactly the rectangle the oracle checks.
func rectQuery(q psd.Rect) string {
	b := make([]byte, 0, 96)
	b = append(b, "rect="...)
	for i, v := range [4]float64{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y} {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return string(b)
}

// appendBatchBody appends the JSON body of a batch request for qs.
func appendBatchBody(b []byte, qs []psd.Rect) []byte {
	b = append(b, `{"rects":[`...)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range [4]float64{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y} {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// inputHash fingerprints generated inputs so tests can show that a seed
// reproduces a run's inputs and another seed does not.
type inputHash struct{ h hash.Hash64 }

func newInputHash() *inputHash { return &inputHash{h: fnv.New64a()} }

func (ih *inputHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	ih.h.Write(b[:])
}

func (ih *inputHash) f64(v float64) { ih.u64(math.Float64bits(v)) }

func (ih *inputHash) durations(ds []time.Duration) {
	for _, d := range ds {
		ih.u64(uint64(d))
	}
}

func (ih *inputHash) rects(qs []psd.Rect) {
	for _, q := range qs {
		ih.f64(q.Lo.X)
		ih.f64(q.Lo.Y)
		ih.f64(q.Hi.X)
		ih.f64(q.Hi.Y)
	}
}

func (ih *inputHash) points(ps []psd.Point) {
	for _, p := range ps {
		ih.f64(p.X)
		ih.f64(p.Y)
	}
}

func (ih *inputHash) sum() uint64 { return ih.h.Sum64() }

// inputsHash fingerprints the inputs workload wl sends in its first timed
// phase of d for seed: schedules, rectangles and point batches, and on
// ingest-publish the batches of its publish cycles too. batch-unique is a
// closed loop, so its first 64 requests per client stand for it.
func inputsHash(wl string, seed int64, sc scale, d time.Duration) (uint64, error) {
	data, dom := dataset(sc)
	ih := newInputHash()
	switch wl {
	case wlCountHot:
		pools := countPools(seed, sc, dom)
		due, rel, idx := countSchedule(seed, 0, pools, sc.countRefRate, d)
		ih.durations(due)
		for i := range due {
			ih.rects(pools[rel[i]][idx[i] : idx[i]+1])
		}
	case wlBatchUnique:
		for c := 0; c < maxClients; c++ {
			ih.rects(newRectGen(dom, seed, batchStream(0, c)).take(64 * sc.batchRects))
		}
	case wlIngestPublish:
		ackDue, readDue, rects := ingestInputs(seed, 0, sc, dom, d)
		ih.points(newPointGen(data, dom, seed, streamIngestPts).take(sc.ingestBase))
		ih.durations(ackDue)
		ih.points(ingestWriter(data, dom, seed, 0).take(len(ackDue) * sc.ingestBatch))
		ih.points(ingestWriter(data, dom, seed, 1).take(sc.publishCycles * sc.ingestBatch))
		ih.durations(readDue)
		ih.rects(rects)
	default:
		return 0, fmt.Errorf("unknown workload %q", wl)
	}
	return ih.sum(), nil
}
