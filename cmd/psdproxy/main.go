// Command psdproxy is the fleet front-end over psdserve replicas: it
// routes each /v1/releases/{name}/* request to the replica owning
// {name} on a consistent-hash ring, actively health-checks the fleet,
// and fails over with bounded retries when a replica dies mid-request.
// Because a release's noise is fixed at publish time, every replica
// serving the same artifact answers bit-identically — so failover never
// changes an answer, only who computes it.
//
// Usage:
//
//	psdproxy -addr :8090 \
//	    -backend http://replica1:8080 \
//	    -backend http://replica2:8080 \
//	    -backend http://replica3:8080
//
// Endpoints:
//
//	GET  /healthz          proxy liveness
//	GET  /readyz           503 until at least one backend is routable
//	GET  /stats            fleet counters + per-backend state (JSON)
//	GET  /metrics          Prometheus text exposition
//	GET  /v1/backends      per-backend health/breaker/counters
//	POST /v1/rollout       manifest rollout across the fleet, with canary
//	                       gating and automatic rollback
//	     /v1/releases...   query traffic, routed with failover
//
// Mutating individual replicas through the proxy is refused (405):
// fleet state changes go through manifest rollouts so replicas never
// diverge. Like psdserve, the proxy drains gracefully on SIGINT/SIGTERM
// (readiness flips first, then the listener closes).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"psd/internal/cluster"
)

// multiFlag accumulates repeated -backend flags.
type multiFlag []string

func (v *multiFlag) String() string { return fmt.Sprint(*v) }

func (v *multiFlag) Set(s string) error {
	if s == "" {
		return errors.New("empty backend URL")
	}
	*v = append(*v, s)
	return nil
}

func main() {
	logger := log.New(os.Stderr, "psdproxy: ", log.LstdFlags)
	if err := run(os.Args[1:], logger); err != nil {
		logger.Fatal(err)
	}
}

// run is the whole proxy lifecycle, separated from main so startup
// failures are testable (mirrors cmd/psdserve).
func run(args []string, logger *log.Logger) error {
	fs := flag.NewFlagSet("psdproxy", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	vnodes := fs.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per backend on the routing ring")
	retries := fs.Int("retries", cluster.DefaultRetries, "retry attempts after the first, each on the next ring replica")
	retryBase := fs.Duration("retry-base", cluster.DefaultRetryBase, "backoff base: retry i sleeps a full-jitter draw from [0, base<<(i-1)]")
	attemptTimeout := fs.Duration("attempt-timeout", 10*time.Second, "deadline for each backend attempt (0 disables)")
	requestTimeout := fs.Duration("request-timeout", 0, "deadline for a whole proxied request including retries (0 disables)")
	probeInterval := fs.Duration("probe-interval", cluster.DefaultProbeInterval, "health probe period")
	probeTimeout := fs.Duration("probe-timeout", cluster.DefaultProbeTimeout, "health probe deadline")
	downAfter := fs.Int("down-after", cluster.DefaultDownAfter, "consecutive probe failures before a backend is down")
	upAfter := fs.Int("up-after", cluster.DefaultUpAfter, "consecutive probe successes before a down backend recovers")
	breakerFailures := fs.Int("breaker-failures", cluster.DefaultBreakerFailures, "consecutive data-path failures that open a backend's circuit breaker")
	breakerOpenFor := fs.Duration("breaker-open", cluster.DefaultBreakerOpenFor, "how long an open breaker refuses before a half-open probe")
	drainDelay := fs.Duration("drain-delay", 0, "pause between flipping /readyz to 503 and closing the listener")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	var backends multiFlag
	fs.Var(&backends, "backend", "psdserve replica base URL (repeatable; need at least one)")
	fs.Parse(args)

	if len(backends) == 0 {
		return errors.New("no backends: pass -backend http://host:port at least once")
	}

	p := cluster.NewProxy(backends, *vnodes)
	if len(p.BackendList()) == 0 {
		return fmt.Errorf("no usable backend URLs in %v", backends)
	}
	p.Retries = *retries
	if *retries == 0 {
		p.Retries = -1 // flag 0 means "no retries", not "default"
	}
	p.RetryBase = *retryBase
	p.AttemptTimeout = *attemptTimeout
	p.RequestTimeout = *requestTimeout
	p.Logger = logger
	for _, b := range p.BackendList() {
		b.Breaker.FailureThreshold = *breakerFailures
		b.Breaker.OpenFor = *breakerOpenFor
	}

	health := &cluster.Health{
		Backends:  p.BackendList(),
		Interval:  *probeInterval,
		Timeout:   *probeTimeout,
		DownAfter: *downAfter,
		UpAfter:   *upAfter,
		Logger:    logger,
	}

	srv := &http.Server{
		Handler:           p.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Bind before declaring readiness, like psdserve.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("bind %s: %w", *addr, err)
	}
	p.SetReady(true)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	healthCtx, healthStop := context.WithCancel(context.Background())
	defer healthStop()
	go health.Run(healthCtx)

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s, %d backend(s): %v",
			ln.Addr(), len(p.BackendList()), p.Ring().Members())
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop()

	p.SetReady(false)
	logger.Printf("draining: /readyz now 503 (delay %s, grace %s)", *drainDelay, *shutdownTimeout)
	if *drainDelay > 0 {
		time.Sleep(*drainDelay)
	}
	healthStop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	p.CloseIdleConnections()
	logger.Print("bye")
	return nil
}
