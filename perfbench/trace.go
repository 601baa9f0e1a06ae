package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"psd/internal/atomicfile"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req (the client span's ID, carried across HTTP hops as the bt query
// parameter); Parent is the span that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	// on gates recording, so a traced run can also measure an untraced
	// phase through the same handler stacks.
	on    atomic.Bool
	base  time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
	// open maps a request to the innermost HTTP-layer span still running
	// for it, so the next layer in can name it as parent.
	open sync.Map
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// newID reserves a span ID before the span's call starts, so inner layers
// can name it as their parent while it runs.
func (t *tracer) newID() uint64 {
	if !t.active() {
		return 0
	}
	return t.next.Add(1)
}

// end records the span id (0: not recording) of layer that started at start and ends now.
func (t *tracer) end(id, parent, req uint64, layer string, start time.Time) {
	if id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Layer: layer,
		Start: int64(start.Sub(t.base)), Dur: int64(now.Sub(start)),
	})
	t.mu.Unlock()
}

// timeCall records fn as one span of layer.
func (t *tracer) timeCall(layer string, parent uint64, fn func() error) error {
	if !t.active() {
		return fn()
	}
	id, start := t.newID(), time.Now()
	err := fn()
	t.end(id, parent, 0, layer, start)
	return err
}

// middleware wraps an HTTP handler stack in a span of layer. The request
// is identified by its bt query parameter; the span's parent is the
// enclosing HTTP layer's span for that request, or the client span.
func (t *tracer) middleware(layer string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.URL.Query().Get("bt"), 10, 64)
		id, start := t.newID(), time.Now()
		parent := req
		if v, ok := t.open.Load(req); ok {
			parent = v.(uint64)
		}
		t.open.Store(req, id)
		next.ServeHTTP(w, r)
		if parent == req {
			t.open.Delete(req)
		} else {
			t.open.Store(req, parent)
		}
		t.end(id, parent, req, layer, start)
	})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per layer, each span's self time: its duration minus
// the time its child spans cover.
func selfTimes(spans []span) map[string][]time.Duration {
	child := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		self := max(s.Dur-child[s.ID], 0)
		out[s.Layer] = append(out[s.Layer], time.Duration(self))
	}
	return out
}

// durations returns, per layer, every span's full duration.
func durations(spans []span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Layer] = append(out[s.Layer], time.Duration(s.Dur))
	}
	return out
}

// writeSpans writes spans as JSON lines to path, atomically.
func writeSpans(path string, spans []span) error {
	_, err := atomicfile.Write(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}
