package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxClients is the number of client connections the load generator may
// hold open: the host has two CPUs, and the servers run in this process.
const maxClients = 2

// client is one load-generator connection: a transport that keeps at most
// one connection to a host, so n clients hold at most n connections.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns its status and a copy of its body.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, bytes.Clone(c.buf.Bytes()), nil
}

// opTiming is what the open loop measured for one scheduled operation.
type opTiming struct {
	sent bool
	// lat runs from when the operation was due until it completed, so time
	// spent queued behind busy clients, and a generator released late
	// because the system starved it of CPU, both count.
	lat time.Duration
	// lag is how late the generator released the operation, the part of
	// lat spent before any client had it: Go's timers overshoot
	// sub-millisecond sleeps by up to a millisecond on an idle host.
	lag time.Duration
}

// maxBehind is how late an open loop may fall behind its schedule before
// it stops sending: the offered rate then exceeds what the system sustains.
const maxBehind = 2 * time.Second

// openLoop runs the operations of a fixed arrival schedule. One generator
// goroutine releases each operation at its due time, whether or not a
// client is free, and workers clients perform them; do performs operation
// i on client w. Once a client picks up an operation more than maxBehind
// after it was due, the rest are not sent.
func openLoop(due []time.Duration, workers int, do func(w, i int)) []opTiming {
	res := make([]opTiming, len(due))
	released := make([]time.Time, len(due))
	// Buffered for the whole schedule, so the generator never waits for a
	// client: a stall queues operations instead of delaying their release.
	queue := make(chan int, len(due))
	var stop atomic.Bool
	start := time.Now()
	go func() {
		defer close(queue)
		for i, d := range due {
			if stop.Load() {
				return
			}
			if wait := time.Until(start.Add(d)); wait > 0 {
				time.Sleep(wait)
			}
			released[i] = time.Now()
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				if stop.Load() {
					continue
				}
				if time.Since(start.Add(due[i])) > maxBehind {
					stop.Store(true)
					continue
				}
				do(w, i)
				at := start.Add(due[i])
				res[i] = opTiming{sent: true, lat: time.Since(at), lag: released[i].Sub(at)}
			}
		}(w)
	}
	wg.Wait()
	return res
}

// closedOp is one closed-loop operation: when it started, from the phase
// start, how long it took, and how many items (rectangles) it answered.
type closedOp struct {
	at, lat time.Duration
	items   int
}

// closedLoop runs workers clients, each sending its next operation as soon
// as the previous one completes, until d has passed. do performs client
// w's j-th operation and returns the time the system took and the items it
// answered; the harness's own work inside do (drawing inputs, decoding
// answers) is left out of that time.
func closedLoop(workers int, d time.Duration, do func(w, j int) (time.Duration, int)) [][]closedOp {
	out := make([][]closedOp, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; ; j++ {
				at := time.Since(start)
				if at >= d {
					return
				}
				lat, items := do(w, j)
				out[w] = append(out[w], closedOp{at: at, lat: lat, items: items})
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedRate is the closed loop's items per second: per window of one
// second, the clients' items divided by the time they spent waiting on the
// system, times the number of clients; the median across windows is
// returned.
func closedRate(ops [][]closedOp, d time.Duration) float64 {
	n := max(1, int(d/time.Second))
	items, busy := make([]float64, n), make([]float64, n)
	for _, client := range ops {
		for _, op := range client {
			w := min(int(int64(n)*int64(op.at)/int64(d)), n-1)
			items[w] += float64(op.items)
			busy[w] += op.lat.Seconds()
		}
	}
	var rates []float64
	for w := range items {
		if busy[w] > 0 {
			rates = append(rates, float64(len(ops))*items[w]/busy[w])
		}
	}
	return median(rates)
}

// server is an HTTP server on a loopback listener.
type server struct {
	URL  string
	srv  *http.Server
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}
