package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---- the pooled backend connections (conn.go) -----------------------------

// poolBackend is an httptest server that counts the connections it accepts,
// so a test can tell a pooled connection from a fresh dial.
type poolBackend struct {
	srv   *httptest.Server
	conns atomic.Int32
}

func newPoolBackend(t *testing.T, h http.HandlerFunc) *poolBackend {
	t.Helper()
	pb := &poolBackend{srv: httptest.NewUnstartedServer(h)}
	pb.srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			pb.conns.Add(1)
		}
	}
	pb.srv.Start()
	t.Cleanup(pb.srv.Close)
	return pb
}

// newPoolProxy fronts urls with a proxy that does not sleep between
// attempts.
func newPoolProxy(t *testing.T, urls ...string) (*Proxy, *httptest.Server) {
	t.Helper()
	p := NewProxy(urls, 64)
	p.Logger = log.New(io.Discard, "", 0)
	p.AttemptTimeout = 5 * time.Second
	p.sleep = func(time.Duration) {}
	p.SetReady(true)
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	t.Cleanup(p.CloseIdleConnections)
	return p, front
}

// proxyDo sends one request through the proxy and returns the reply with
// its body read.
func proxyDo(t *testing.T, method, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp, body
}

func idleConns(b *Backend) int {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	return len(b.idle)
}

// requireClean fails unless the proxy retried nothing and b recorded no
// failure and kept its breaker closed.
func requireClean(t *testing.T, p *Proxy, b *Backend) {
	t.Helper()
	if st := p.Stats(); st.Retries != 0 {
		t.Fatalf("%d retries, want 0", st.Retries)
	}
	if f := b.Failures.Load(); f != 0 {
		t.Fatalf("%d backend failures, want 0", f)
	}
	if s := b.Breaker.State(); s != BreakerClosed {
		t.Fatalf("breaker %v, want closed", s)
	}
}

func helloHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "hello "+r.URL.RawQuery)
}

// TestPoolReusesConnection: back-to-back requests share one pooled
// connection, and each reply arrives intact.
func TestPoolReusesConnection(t *testing.T) {
	pb := newPoolBackend(t, helloHandler)
	p, front := newPoolProxy(t, pb.srv.URL)
	for i, q := range []string{"a=1", "b=2", "c=3"} {
		resp, body := proxyDo(t, "GET", front.URL+"/v1/releases/x/count?"+q)
		if resp.StatusCode != 200 || string(body) != "hello "+q || resp.Header.Get("Content-Type") != "text/plain" {
			t.Fatalf("request %d: %d %q %q", i, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
	}
	if n := pb.conns.Load(); n != 1 {
		t.Fatalf("%d backend connections for 3 sequential requests, want 1", n)
	}
	if n := idleConns(p.backends[pb.srv.URL]); n != 1 {
		t.Fatalf("%d idle connections, want 1", n)
	}
}

// TestPoolConcurrent: requests from several goroutines at once each get
// their own reply, and the pool never holds more connections than there
// were requests in flight.
func TestPoolConcurrent(t *testing.T) {
	pb := newPoolBackend(t, helloHandler)
	p, front := newPoolProxy(t, pb.srv.URL)
	const workers, each = 8, 40
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q := fmt.Sprintf("w=%d&i=%d", w, i)
				resp, err := client.Get(front.URL + "/v1/releases/x/count?" + q)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 || string(body) != "hello "+q {
					t.Errorf("%s: %d %q %v", q, resp.StatusCode, body, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := pb.conns.Load(); n > workers {
		t.Fatalf("%d backend connections for %d concurrent clients", n, workers)
	}
	if n := idleConns(p.backends[pb.srv.URL]); n < 1 || n > workers {
		t.Fatalf("%d idle connections after %d concurrent clients", n, workers)
	}
	requireClean(t, p, p.backends[pb.srv.URL])
}

// TestPoolBackendClosedIdleConnection: a pooled connection the backend
// closed while idle costs a silent redial, not a retry or a failure.
func TestPoolBackendClosedIdleConnection(t *testing.T) {
	pb := newPoolBackend(t, helloHandler)
	p, front := newPoolProxy(t, pb.srv.URL)
	b := p.backends[pb.srv.URL]
	proxyDo(t, "GET", front.URL+"/v1/releases/x/count?a=1")
	if idleConns(b) != 1 {
		t.Fatal("first reply's connection was not pooled")
	}
	pb.srv.CloseClientConnections()
	resp, body := proxyDo(t, "GET", front.URL+"/v1/releases/x/count?a=2")
	if resp.StatusCode != 200 || string(body) != "hello a=2" {
		t.Fatalf("after the idle close: %d %q", resp.StatusCode, body)
	}
	if n := pb.conns.Load(); n != 2 {
		t.Fatalf("%d backend connections, want 2 (the closed one and its redial)", n)
	}
	requireClean(t, p, b)
}

// TestPoolBackendRestartedOnSamePort: every pooled connection dies with
// the backend process; one restarted on the same address answers the next
// request through a redial.
func TestPoolBackendRestartedOnSamePort(t *testing.T) {
	pb := newPoolBackend(t, helloHandler)
	addr := pb.srv.Listener.Addr().String()
	p, front := newPoolProxy(t, pb.srv.URL)
	b := p.backends[pb.srv.URL]
	proxyDo(t, "GET", front.URL+"/v1/releases/x/count?a=1")
	pb.srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	restarted := &http.Server{Handler: http.HandlerFunc(helloHandler)}
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })

	resp, body := proxyDo(t, "GET", front.URL+"/v1/releases/x/count?a=2")
	if resp.StatusCode != 200 || string(body) != "hello a=2" {
		t.Fatalf("after the restart: %d %q", resp.StatusCode, body)
	}
	requireClean(t, p, b)
}

// TestPoolConnectionCloseNotPooled: a reply carrying Connection: close is
// forwarded, and its connection is not reused.
func TestPoolConnectionCloseNotPooled(t *testing.T) {
	pb := newPoolBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		helloHandler(w, r)
	})
	p, front := newPoolProxy(t, pb.srv.URL)
	b := p.backends[pb.srv.URL]
	for i := 1; i <= 2; i++ {
		resp, body := proxyDo(t, "GET", front.URL+"/v1/releases/x/count?a=1")
		if resp.StatusCode != 200 || string(body) != "hello a=1" {
			t.Fatalf("request %d: %d %q", i, resp.StatusCode, body)
		}
		if n := idleConns(b); n != 0 {
			t.Fatalf("request %d: %d idle connections after Connection: close, want 0", i, n)
		}
	}
	if n := pb.conns.Load(); n != 2 {
		t.Fatalf("%d backend connections, want 2", n)
	}
	requireClean(t, p, b)
}

// TestPoolChunkedReply: a chunked reply reaches the client whole, and its
// connection, read through the last chunk, is pooled.
func TestPoolChunkedReply(t *testing.T) {
	var want bytes.Buffer
	for i := 0; i < 50; i++ {
		want.WriteString(strings.Repeat(string(rune('a'+i%26)), 100+i))
	}
	pb := newPoolBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		for rest := want.Bytes(); len(rest) > 0; {
			n := min(len(rest), 700)
			w.Write(rest[:n])
			w.(http.Flusher).Flush()
			rest = rest[n:]
		}
	})
	p, front := newPoolProxy(t, pb.srv.URL)
	for i := 0; i < 2; i++ {
		resp, body := proxyDo(t, "GET", front.URL+"/v1/releases/x/regions")
		if resp.StatusCode != 200 || !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("request %d: status %d, %d body bytes, want 200 and %d", i, resp.StatusCode, len(body), want.Len())
		}
	}
	if n := pb.conns.Load(); n != 1 {
		t.Fatalf("%d backend connections, want 1", n)
	}
	requireClean(t, p, p.backends[pb.srv.URL])
}

// TestPoolOversizeReplyFailsOver: a reply over MaxBodyBytes, declared by
// Content-Length or only found while reading chunks, fails that attempt,
// and the next replica answers.
func TestPoolOversizeReplyFailsOver(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		var bigOwner atomic.Pointer[string]
		h := func(w http.ResponseWriter, r *http.Request) {
			if owner := bigOwner.Load(); owner != nil && "http://"+r.Host == *owner {
				big := strings.Repeat("x", 300)
				if chunked {
					w.Write([]byte(big[:100]))
					w.(http.Flusher).Flush()
					big = big[100:]
				}
				w.Write([]byte(big))
				return
			}
			io.WriteString(w, "small")
		}
		a, b := newPoolBackend(t, h), newPoolBackend(t, h)
		p, front := newPoolProxy(t, a.srv.URL, b.srv.URL)
		p.MaxBodyBytes = 256
		owner := p.Ring().Owner("x")
		bigOwner.Store(&owner)

		resp, body := proxyDo(t, "GET", front.URL+"/v1/releases/x/count")
		if resp.StatusCode != 200 || string(body) != "small" {
			t.Fatalf("chunked=%v: %d %q, want the other replica's 200", chunked, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-PSD-Backend"); got == owner {
			t.Fatalf("chunked=%v: the oversize owner %s answered", chunked, got)
		}
		if f := p.backends[owner].Failures.Load(); f != 1 {
			t.Fatalf("chunked=%v: owner failures %d, want 1", chunked, f)
		}
		if n := idleConns(p.backends[owner]); n != 0 {
			t.Fatalf("chunked=%v: the oversize reply's connection was pooled", chunked)
		}
		if r := p.Stats().Retries; r != 1 {
			t.Fatalf("chunked=%v: %d retries, want 1", chunked, r)
		}
	}
}

// TestPoolStalledBackendTimesOut: a backend that never answers is cut off
// at AttemptTimeout, on a pooled connection as on a fresh one, and the
// connection is closed.
func TestPoolStalledBackendTimesOut(t *testing.T) {
	var stall atomic.Bool
	released := make(chan struct{}, 4)
	pb := newPoolBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if stall.Load() {
			<-r.Context().Done()
			released <- struct{}{}
			return
		}
		helloHandler(w, r)
	})
	p, front := newPoolProxy(t, pb.srv.URL)
	p.Retries = -1
	p.AttemptTimeout = 100 * time.Millisecond
	b := p.backends[pb.srv.URL]
	proxyDo(t, "GET", front.URL+"/v1/releases/x/count?a=1") // pool one connection

	stall.Store(true)
	start := time.Now()
	resp, _ := proxyDo(t, "GET", front.URL+"/v1/releases/x/count?a=2")
	if elapsed := time.Since(start); elapsed < p.AttemptTimeout || elapsed > 3*time.Second {
		t.Fatalf("stalled attempt took %v, want about %v", elapsed, p.AttemptTimeout)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the proxy's own 503", resp.StatusCode)
	}
	if f := b.Failures.Load(); f != 1 {
		t.Fatalf("%d failures, want 1 (a timeout on a pooled connection is no silent redial)", f)
	}
	select {
	case <-released:
	case <-time.After(3 * time.Second):
		t.Fatal("the timed-out connection was left open")
	}
	if n := idleConns(b); n != 0 {
		t.Fatalf("%d idle connections after a timeout, want 0", n)
	}
}

// TestPoolClientCancelClosesConnection: a client that goes away mid-attempt
// makes the proxy close the backend connection at once, long before
// AttemptTimeout, and never pool it.
func TestPoolClientCancelClosesConnection(t *testing.T) {
	started := make(chan struct{}, 1)
	released := make(chan struct{}, 1)
	pb := newPoolBackend(t, func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-r.Context().Done()
		released <- struct{}{}
	})
	p, front := newPoolProxy(t, pb.srv.URL)
	p.AttemptTimeout = time.Minute
	b := p.backends[pb.srv.URL]

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", front.URL+"/v1/releases/x/count", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error %v, want context.Canceled", err)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("the backend connection stayed open after the client cancelled")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Requests == 0 || b.Requests.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the attempt was never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if n := idleConns(b); n != 0 {
		t.Fatalf("%d idle connections after a cancelled attempt, want 0", n)
	}
}

// TestPoolHead: a HEAD reply has headers and no body; the connection it
// used carries the next request cleanly.
func TestPoolHead(t *testing.T) {
	pb := newPoolBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "17")
		if r.Method != http.MethodHead {
			io.WriteString(w, `{"count":1234.5}`+"\n")
		}
	})
	p, front := newPoolProxy(t, pb.srv.URL)
	resp, body := proxyDo(t, "HEAD", front.URL+"/v1/releases/x/count")
	if resp.StatusCode != 200 || len(body) != 0 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("HEAD: %d %q %q", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	resp, body = proxyDo(t, "GET", front.URL+"/v1/releases/x/count")
	if resp.StatusCode != 200 || string(body) != `{"count":1234.5}`+"\n" {
		t.Fatalf("GET after HEAD: %d %q", resp.StatusCode, body)
	}
	if n := pb.conns.Load(); n != 1 {
		t.Fatalf("%d backend connections, want 1", n)
	}
	requireClean(t, p, p.backends[pb.srv.URL])
}
