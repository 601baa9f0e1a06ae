package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"psd"
)

// tally counts operations attempted and failed. Every failure kind the
// benchmark can see lands in failed: transport errors, non-200 responses
// (503 sheds among them), answers that differ from the oracle by even one
// bit, lost acknowledged points, and failed post-run audits.
type tally struct {
	attempted int64
	failed    int64
	non200    int64
	sheds     int64
	wrong     int64
	errs      int64
	notes     []string
}

const maxNotes = 8

func (t *tally) note(format string, args ...any) {
	t.failed++
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// response is what the harness keeps of one HTTP exchange until checking.
type response struct {
	status int
	body   []byte
	err    error
}

// accept counts one attempted request and reports whether it came back
// 200; anything else is tallied as a failure.
func (t *tally) accept(what string, r response) bool {
	t.attempted++
	switch {
	case r.err != nil:
		t.errs++
		t.note("%s: %v", what, r.err)
		return false
	case r.status != http.StatusOK:
		t.non200++
		if r.status == http.StatusServiceUnavailable {
			t.sheds++
		}
		t.note("%s: HTTP %d: %.200s", what, r.status, r.body)
		return false
	}
	return true
}

// sameBits is the oracle's equality: served answers must be bit-identical
// to an independent slab's, not merely close.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// countReply is the body of GET /v1/releases/{name}/count.
type countReply struct {
	Release string  `json:"release"`
	Count   float64 `json:"count"`
}

// decodeCount parses a single-count response, tallying a body that does
// not parse as a wrong answer.
func (t *tally) decodeCount(what string, r response) (countReply, bool) {
	var c countReply
	if !t.accept(what, r) {
		return c, false
	}
	if err := json.Unmarshal(r.body, &c); err != nil {
		t.wrong++
		t.note("%s: undecodable body %.200q: %v", what, r.body, err)
		return c, false
	}
	return c, true
}

// checkCount judges one single-count response against the oracle's answer.
func (t *tally) checkCount(what string, r response, wantRelease string, want float64) {
	c, ok := t.decodeCount(what, r)
	if !ok {
		return
	}
	if c.Release != wantRelease || !sameBits(c.Count, want) {
		t.wrong++
		t.note("%s: served %s=%v, oracle %s=%v", what, c.Release, c.Count, wantRelease, want)
	}
}

// batchReply is the body of POST /v1/releases/{name}/batch.
type batchReply struct {
	Release string    `json:"release"`
	Counts  []float64 `json:"counts"`
}

// answerSum fingerprints a batch's answers bit for bit, so a batch can be
// checked after the run without keeping every answer in memory meanwhile.
func answerSum(counts []float64) uint64 {
	h := newInputHash()
	for _, c := range counts {
		h.f64(c)
	}
	return h.sum()
}

// checkBatch judges a batch's answers, kept as their count and answerSum,
// against the oracle's.
func (t *tally) checkBatch(what string, n int, sum uint64, want []float64) {
	if n != len(want) || sum != answerSum(want) {
		t.wrong++
		t.note("%s: %d answers for %d rectangles differ from the oracle's", what, n, len(want))
	}
}

// oracle holds independent slabs opened straight from the artifacts the
// servers load, through psd.OpenSlabFile and Verify, never through the
// serving registry: answers are compared across two separate opens.
type oracle struct {
	tr      *tracer
	slabs   map[string]*psd.Slab
	opens   []time.Duration
	verifys []time.Duration
}

func newOracle(tr *tracer) *oracle { return &oracle{tr: tr, slabs: make(map[string]*psd.Slab)} }

// slab returns the verified oracle slab of the artifact at path.
func (o *oracle) slab(path string) (*psd.Slab, error) {
	if s, ok := o.slabs[path]; ok {
		return s, nil
	}
	var s *psd.Slab
	start := time.Now()
	err := o.tr.timeCall("core.open_v3", 0, func() (err error) {
		s, err = psd.OpenSlabFile(path)
		return err
	})
	o.opens = append(o.opens, time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("oracle: opening %s: %w", path, err)
	}
	start = time.Now()
	err = o.tr.timeCall("core.verify", 0, s.Verify)
	o.verifys = append(o.verifys, time.Since(start))
	if err != nil {
		_ = s.Close() // the verify error wins
		return nil, fmt.Errorf("oracle: verifying %s: %w", path, err)
	}
	o.slabs[path] = s
	return s, nil
}

// close unmaps every slab the oracle holds; it may open more afterwards.
func (o *oracle) close() error {
	var first error
	for path, s := range o.slabs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
		delete(o.slabs, path)
	}
	return first
}
