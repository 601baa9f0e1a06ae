package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Proxy is the fleet front-end behind cmd/psdproxy: it routes
// /v1/releases/{name}/* to the replica owning {name} on the consistent-
// hash ring, fails over along the ring's successor order with bounded
// retries (exponential backoff + full jitter between attempts), consults
// each backend's health state and circuit breaker before every attempt,
// and degrades gracefully — if no routable replica remains it answers
// 503 with its own Retry-After, and when retries exhaust on backend 503s
// the last backend response (including its Retry-After) passes through
// unmodified.
//
// Because every replica serving the same published release returns bit-
// identical answers (noise is fixed at publish time), failover never
// changes a response body — only availability.
type Proxy struct {
	// Retries is the number of additional attempts after the first
	// (0 means DefaultRetries; negative means none).
	Retries int
	// RetryBase scales the backoff between attempts: the sleep before
	// retry i is a full-jitter draw from [0, RetryBase<<(i-1)] (0 means
	// DefaultRetryBase).
	RetryBase time.Duration
	// AttemptTimeout bounds each individual backend attempt (0 disables).
	AttemptTimeout time.Duration
	// RequestTimeout bounds the whole proxied request including retries
	// and backoff (0 disables).
	RequestTimeout time.Duration
	// RetryAfter is the hint on proxy-originated 503s (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds buffered request and response bodies (default
	// 256 MiB). Bodies are buffered so a mid-body backend failure can
	// still fail over to the next replica.
	MaxBodyBytes int64
	// RolloutReadyTimeout bounds how long a rollout waits for an updated
	// replica's /readyz (0 means DefaultRolloutReadyTimeout).
	RolloutReadyTimeout time.Duration
	// RolloutPoll is the /readyz poll interval during rollouts (0 means
	// DefaultRolloutPoll).
	RolloutPoll time.Duration
	// Logger receives failover and degradation lines (nil means the
	// standard logger).
	Logger *log.Logger

	ring     *Ring
	backends map[string]*Backend
	ordered  []*Backend

	started time.Time
	ready   atomic.Bool

	// Fleet-level counters (per-backend ones live on Backend).
	requests     atomic.Uint64 // proxied /v1/releases requests
	retries      atomic.Uint64 // attempts beyond each request's first
	failovers    atomic.Uint64 // successes answered by a non-owner
	noReplica    atomic.Uint64 // proxy-originated 503s (nothing routable)
	breakerSkips atomic.Uint64 // candidates skipped by an open breaker
	rollouts     atomic.Uint64 // manifest rollouts attempted
	rollbacks    atomic.Uint64 // manifest rollouts rolled back

	// sleep and jitter are seams so the fault tests run without real
	// backoff delays; nil means time.Sleep and a full-jitter draw.
	sleep  func(time.Duration)
	jitter func(time.Duration) time.Duration
}

// Proxy defaults.
const (
	DefaultRetries   = 2
	DefaultRetryBase = 25 * time.Millisecond
	// DefaultProxyMaxBody mirrors serve.DefaultMaxBodyBytes.
	DefaultProxyMaxBody = 256 << 20
	// DefaultProxyRetryAfter is the proxy-originated 503 hint.
	DefaultProxyRetryAfter = time.Second
)

// NewProxy builds a proxy over the given backend base URLs (trailing
// slashes trimmed, duplicates dropped) with vnodes virtual nodes per
// member (<=0 means DefaultVirtualNodes).
func NewProxy(urls []string, vnodes int) *Proxy {
	p := &Proxy{
		backends: make(map[string]*Backend, len(urls)),
		started:  time.Now(),
	}
	members := make([]string, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(u, "/")
		if _, dup := p.backends[u]; dup || u == "" {
			continue
		}
		b := NewBackend(u)
		p.backends[u] = b
		members = append(members, u)
	}
	p.ring = NewRing(members, vnodes)
	for _, m := range p.ring.Members() {
		p.ordered = append(p.ordered, p.backends[m])
	}
	return p
}

// BackendList returns the fleet in stable (sorted-URL) order, for wiring
// the health checker and the rollout coordinator.
func (p *Proxy) BackendList() []*Backend { return p.ordered }

// Ring exposes the routing ring (rollout ordering, tests).
func (p *Proxy) Ring() *Ring { return p.ring }

// SetReady flips the proxy's readiness gate (drain handling in main).
func (p *Proxy) SetReady(ready bool) { p.ready.Store(ready) }

// CloseIdleConnections closes every pooled idle backend connection. Call it
// once the front server has shut down; otherwise the pooled connections
// stay open until the garbage collector finds them.
func (p *Proxy) CloseIdleConnections() {
	for _, b := range p.ordered {
		b.CloseIdleConnections()
	}
}

func (p *Proxy) retriesN() int {
	if p.Retries < 0 {
		return 0
	}
	if p.Retries == 0 {
		return DefaultRetries
	}
	return p.Retries
}

func (p *Proxy) retryBase() time.Duration {
	if p.RetryBase > 0 {
		return p.RetryBase
	}
	return DefaultRetryBase
}

func (p *Proxy) maxBody() int64 {
	if p.MaxBodyBytes > 0 {
		return p.MaxBodyBytes
	}
	return DefaultProxyMaxBody
}

func (p *Proxy) logf(format string, args ...any) {
	if p.Logger != nil {
		p.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (p *Proxy) doSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if p.sleep != nil {
		p.sleep(d)
		return
	}
	time.Sleep(d)
}

// drawJitter is the full-jitter draw: uniform in [0, d]. Full jitter
// decorrelates the retry schedules of independent clients — the same
// reasoning as the registry's transient-IO backoff (serve/quarantine.go).
func (p *Proxy) drawJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	if p.jitter != nil {
		return p.jitter(d)
	}
	return time.Duration(rand.Int64N(int64(d) + 1))
}

// retryAfter formats the proxy-originated Retry-After in whole seconds.
func (p *Proxy) retryAfter() string {
	d := p.RetryAfter
	if d <= 0 {
		d = DefaultProxyRetryAfter
	}
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// Handler returns the proxy's routed HTTP handler:
//
//	GET  /healthz          proxy liveness
//	GET  /readyz           503 until >=1 backend is routable (or draining)
//	GET  /stats            fleet counters + per-backend state (JSON)
//	GET  /metrics          the same in Prometheus text exposition format
//	GET  /v1/backends      per-backend health/breaker/counters (JSON)
//	POST /v1/rollout       manifest rollout across the fleet (rollout.go)
//	     /v1/releases...   routed to the owning replica with failover
//
// Query traffic (GET anything under /v1/releases, POST .../batch) is
// proxied; mutating single replicas through the proxy (POST/DELETE on a
// release) is refused with 405 — fleet state changes go through
// manifests so replicas never diverge.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /readyz", p.handleReadyz)
	mux.HandleFunc("GET /stats", p.handleStats)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /v1/backends", p.handleBackends)
	mux.HandleFunc("POST /v1/rollout", p.handleRollout)
	mux.HandleFunc("/v1/releases", p.handleProxy)
	mux.HandleFunc("/v1/releases/", p.handleProxy)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"backends": len(p.ordered),
		"uptime":   time.Since(p.started).Round(time.Millisecond).String(),
	})
}

// routable counts backends the router would consider at all.
func (p *Proxy) routable() int {
	n := 0
	for _, b := range p.ordered {
		if b.State() != Down {
			n++
		}
	}
	return n
}

// handleReadyz: the proxy is ready when it has been marked up (drain
// flips it off) and at least one backend is routable. A fleet that lost
// every replica must tell its own balancer so traffic goes elsewhere.
func (p *Proxy) handleReadyz(w http.ResponseWriter, r *http.Request) {
	routable := p.routable()
	status, state := http.StatusOK, "ready"
	if !p.ready.Load() || routable == 0 {
		status, state = http.StatusServiceUnavailable, "unready"
	}
	writeJSON(w, status, map[string]any{
		"status":   state,
		"routable": routable,
		"backends": len(p.ordered),
	})
}

// routeKey extracts the release name from a /v1/releases path ("" for
// the list endpoint, which any routable replica can answer).
func routeKey(path string) string {
	rest := strings.TrimPrefix(path, "/v1/releases")
	rest = strings.TrimPrefix(rest, "/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// proxiable reports whether the method+path is query traffic the fleet
// serves (reads, plus the read-only POST /batch).
func proxiable(r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	return r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/batch")
}

// attemptResult is one buffered backend response.
type attemptResult struct {
	status  int
	header  http.Header
	body    []byte
	backend string
}

// retriableStatus reports whether a backend status is worth a failover
// attempt on the next replica: 5xx (including orderly 503 sheds — another
// replica may have capacity) and 404 (a replica mid-rollout may not hold
// the release yet; a true miss 404s everywhere and passes through).
func retriableStatus(code int) bool {
	return code >= 500 || code == http.StatusNotFound
}

// breakerFailure reports whether a backend status should count against
// the circuit breaker. Orderly 503s (shed, over-deadline) are the
// backend protecting itself, not malfunctioning; tripping the breaker on
// them would amplify overload into unavailability. 404s are not faults
// either — the replica answered competently.
func breakerFailure(code int) bool {
	return code >= 500 && code != http.StatusServiceUnavailable
}

// handleProxy is the routed query path.
func (p *Proxy) handleProxy(w http.ResponseWriter, r *http.Request) {
	if !proxiable(r) {
		writeError(w, http.StatusMethodNotAllowed,
			"%s %s: fleet state is manifest-driven; roll out releases via POST /v1/rollout",
			r.Method, r.URL.Path)
		return
	}
	p.requests.Add(1)

	// Buffer the request body once so every retry can resend it.
	var reqBody []byte
	if r.Body != nil && r.Body != http.NoBody {
		var err error
		reqBody, err = io.ReadAll(io.LimitReader(r.Body, p.maxBody()+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
			return
		}
		if int64(len(reqBody)) > p.maxBody() {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", p.maxBody())
			return
		}
	}

	ctx := r.Context()
	if p.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.RequestTimeout)
		defer cancel()
	}

	key := routeKey(r.URL.Path)
	candidates := p.ring.Successors(key, len(p.ordered))
	cursor := 0
	// pick scans one full lap of the candidate ring from the cursor for
	// the next routable backend (not down, breaker admitting).
	pick := func() *Backend {
		for scanned := 0; scanned < len(candidates); scanned++ {
			cand := p.backends[candidates[cursor%len(candidates)]]
			cursor++
			if cand.State() == Down {
				continue
			}
			if !cand.Breaker.Allow() {
				p.breakerSkips.Add(1)
				continue
			}
			return cand
		}
		return nil
	}

	attempts := p.retriesN() + 1
	var last *attemptResult
	tried := 0
	for attempt := 0; attempt < attempts; attempt++ {
		b := pick()
		if b == nil {
			break
		}
		if tried > 0 {
			p.retries.Add(1)
			p.doSleep(p.drawJitter(p.retryBase() << (tried - 1)))
			if ctx.Err() != nil {
				break
			}
		}
		tried++
		res, err := p.attempt(ctx, b, r, reqBody)
		if err != nil {
			b.Breaker.Failure()
			b.Failures.Add(1)
			p.logf("proxy: %s %s via %s failed: %v", r.Method, r.URL.Path, b.URL, err)
			if ctx.Err() != nil {
				break // the request's own deadline expired; stop burning replicas
			}
			continue
		}
		if !retriableStatus(res.status) {
			// Success or a definitive client answer (2xx/3xx/4xx-not-404).
			b.Breaker.Success()
			if res.status < 400 && res.backend != candidates[0] {
				p.failovers.Add(1)
			}
			p.forward(w, res)
			return
		}
		b.Failures.Add(1)
		if breakerFailure(res.status) {
			b.Breaker.Failure()
		} else {
			// Orderly 503 or 404: the backend is functioning.
			b.Breaker.Success()
		}
		last = res
	}

	// Exhausted. A buffered backend response passes through unmodified —
	// in particular a shed/deadline 503 keeps its Retry-After exactly as
	// the backend set it, and an everywhere-404 stays a 404. With no
	// response at all (every replica down, breaker-open, or unreachable)
	// the proxy originates its own 503.
	if last != nil {
		p.forward(w, last)
		return
	}
	p.noReplica.Add(1)
	w.Header().Set("Retry-After", p.retryAfter())
	writeError(w, http.StatusServiceUnavailable, "no ready replica for %q", key)
}

// attempt issues one buffered round trip to backend b over one of its
// pooled connections (conn.go). The attempt ends at the earlier of
// AttemptTimeout from now and the request's own deadline, or when the
// client goes away.
func (p *Proxy) attempt(ctx context.Context, b *Backend, r *http.Request, body []byte) (*attemptResult, error) {
	b.Requests.Add(1)
	deadline, _ := ctx.Deadline()
	if p.AttemptTimeout > 0 {
		if d := time.Now().Add(p.AttemptTimeout); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	resp, respBody, err := b.roundTrip(ctx, deadline, r, body, p.maxBody())
	if err != nil {
		// Mid-body failures (a stalled or killed backend) included, no
		// usable response came back: this attempt failed and the next
		// replica gets its turn.
		return nil, err
	}
	return &attemptResult{
		status:  resp.StatusCode,
		header:  resp.Header,
		body:    respBody,
		backend: b.URL,
	}, nil
}

// forward writes a buffered backend response to the client, preserving
// status, Content-Type, and Retry-After, and naming the serving replica
// in X-PSD-Backend.
func (p *Proxy) forward(w http.ResponseWriter, res *attemptResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-PSD-Backend", res.backend)
	w.WriteHeader(res.status)
	w.Write(res.body)
}
