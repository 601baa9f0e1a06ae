package cluster

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"
)

// The proxy's data path to a backend. Each Backend keeps a small LIFO pool
// of HTTP/1.1 keep-alive connections that the proxy's handler goroutine
// writes and reads itself: one Write carries the request line, the headers
// and the buffered body, and http.ReadResponse parses the reply from the
// connection's own bufio.Reader. There are no per-connection goroutines and
// no channel handoffs, which is where http.Transport spends its time on a
// small proxied request.

// maxIdleConns bounds each backend's idle pool. A connection handed back
// when the pool is full is closed instead.
const maxIdleConns = 64

// maxPooledWriteBuf bounds the request buffer a pooled connection keeps: a
// rare huge batch body must not stay pinned to an idle connection.
const maxPooledWriteBuf = 64 << 10

// backendConn is one keep-alive connection to a backend.
type backendConn struct {
	c  net.Conn
	br *bufio.Reader
	wb []byte // request scratch, reused for every request on c
}

// headRequest tells http.ReadResponse that a reply has no body.
var headRequest = &http.Request{Method: http.MethodHead}

// target is where a backend's requests go, parsed from its URL once.
type target struct {
	addr   string // dial address, host:port
	host   string // Host header
	prefix string // URL path, prepended to every forwarded path
	tls    *tls.Config
	err    error // a URL the proxy cannot dial
}

func parseTarget(raw string) target {
	u, err := url.Parse(raw)
	if err != nil {
		return target{err: err}
	}
	t := target{host: u.Host, prefix: u.EscapedPath()}
	port := u.Port()
	switch u.Scheme {
	case "http":
		if port == "" {
			port = "80"
		}
	case "https":
		if port == "" {
			port = "443"
		}
		t.tls = &tls.Config{ServerName: u.Hostname()}
	default:
		return target{err: fmt.Errorf("backend URL %q: scheme must be http or https", raw)}
	}
	if u.Hostname() == "" {
		return target{err: fmt.Errorf("backend URL %q has no host", raw)}
	}
	t.addr = net.JoinHostPort(u.Hostname(), port)
	return t
}

// getConn pops the most recently used idle connection, or returns nil.
func (b *Backend) getConn() *backendConn {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	n := len(b.idle)
	if n == 0 {
		return nil
	}
	bc := b.idle[n-1]
	b.idle[n-1] = nil
	b.idle = b.idle[:n-1]
	return bc
}

// putConn returns a connection whose last exchange ended cleanly to the
// idle pool, or closes it when the pool is full.
func (b *Backend) putConn(bc *backendConn) {
	if cap(bc.wb) > maxPooledWriteBuf {
		bc.wb = nil
	}
	b.connMu.Lock()
	if len(b.idle) < maxIdleConns {
		b.idle = append(b.idle, bc)
		bc = nil
	}
	b.connMu.Unlock()
	if bc != nil {
		_ = bc.c.Close() // a surplus idle connection; nothing was lost
	}
}

// CloseIdleConnections closes every pooled idle connection to the backend.
// Connections in use are not affected, and later requests dial anew.
func (b *Backend) CloseIdleConnections() {
	b.connMu.Lock()
	idle := b.idle
	b.idle = nil
	b.connMu.Unlock()
	for _, bc := range idle {
		_ = bc.c.Close() // idle: no request is in flight on it
	}
}

// dial opens a new connection to the backend, giving up at deadline (zero:
// never) or when ctx ends.
func (b *Backend) dial(ctx context.Context, deadline time.Time) (*backendConn, error) {
	if b.target.err != nil {
		return nil, b.target.err
	}
	d := net.Dialer{Deadline: deadline}
	c, err := d.DialContext(ctx, "tcp", b.target.addr)
	if err != nil {
		return nil, err
	}
	if b.target.tls != nil {
		c = tls.Client(c, b.target.tls)
	}
	return &backendConn{c: c, br: bufio.NewReader(c)}, nil
}

// roundTrip sends one request to b and reads its whole reply, limiting the
// reply body to limit bytes. It takes a pooled connection when one is idle
// and dials otherwise. A pooled connection that fails before the first
// reply byte was most likely closed by the backend while idle, so the
// request is sent once more on a fresh connection; everything the proxy
// forwards is read-only, so a resend is always safe.
func (b *Backend) roundTrip(ctx context.Context, deadline time.Time, r *http.Request, body []byte, limit int64) (*http.Response, []byte, error) {
	if bc := b.getConn(); bc != nil {
		resp, respBody, replied, err := b.exchange(ctx, bc, deadline, r, body, limit)
		if err == nil || replied || ctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded) {
			return resp, respBody, err
		}
	}
	bc, err := b.dial(ctx, deadline)
	if err != nil {
		return nil, nil, err
	}
	resp, respBody, _, err := b.exchange(ctx, bc, deadline, r, body, limit)
	return resp, respBody, err
}

// exchange runs one request and reply on bc, then pools bc or closes it.
// replied reports whether any reply byte arrived.
func (b *Backend) exchange(ctx context.Context, bc *backendConn, deadline time.Time, r *http.Request, body []byte, limit int64) (resp *http.Response, respBody []byte, replied bool, err error) {
	if err := bc.c.SetDeadline(deadline); err != nil {
		_ = bc.c.Close() // unusable before anything was sent
		return nil, nil, false, err
	}
	// A client cancel moves the deadline into the past, which unblocks the
	// read or write in progress; the connection is then closed, not pooled.
	stop := context.AfterFunc(ctx, func() { _ = bc.c.SetDeadline(time.Unix(1, 0)) })
	resp, respBody, replied, err = bc.send(b.target, r, body, limit)
	canceled := !stop()
	if err != nil || canceled || resp.Close || bc.br.Buffered() > 0 {
		_ = bc.c.Close() // the exchange did not end cleanly; never reuse it
		return resp, respBody, replied, err
	}
	b.putConn(bc)
	return resp, respBody, true, nil
}

// send writes the request in one Write and reads the reply through its
// last body byte. replied reports whether any reply byte arrived.
func (bc *backendConn) send(t target, r *http.Request, body []byte, limit int64) (*http.Response, []byte, bool, error) {
	bc.wb = t.appendRequest(bc.wb[:0], r, body)
	if _, err := bc.c.Write(bc.wb); err != nil {
		return nil, nil, false, err
	}
	if _, err := bc.br.Peek(1); err != nil {
		return nil, nil, false, err
	}
	var req *http.Request // nil reads as GET
	if r.Method == http.MethodHead {
		req = headRequest
	}
	resp, err := http.ReadResponse(bc.br, req)
	if err != nil {
		return nil, nil, true, err
	}
	n := resp.ContentLength
	if resp.Body == http.NoBody { // HEAD, 204 and 304 replies
		n = 0
	}
	respBody, err := readBody(resp.Body, n, limit)
	if err != nil {
		return nil, nil, true, err
	}
	return resp, respBody, true, nil
}

// appendRequest appends r's request line and the forwarded headers: Host,
// Content-Type (the only client header passed on) and, when there is a
// body or the method is POST, Content-Length. The body follows.
func (t target) appendRequest(wb []byte, r *http.Request, body []byte) []byte {
	wb = append(wb, r.Method...)
	wb = append(wb, ' ')
	wb = append(wb, t.prefix...)
	wb = append(wb, r.URL.EscapedPath()...)
	if r.URL.RawQuery != "" {
		wb = append(wb, '?')
		wb = append(wb, r.URL.RawQuery...)
	}
	wb = append(wb, " HTTP/1.1\r\nHost: "...)
	wb = append(wb, t.host...)
	// A value that would end the header early is not forwarded.
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.ContainsAny(ct, "\r\n\x00") {
		wb = append(wb, "\r\nContent-Type: "...)
		wb = append(wb, ct...)
	}
	if len(body) > 0 || r.Method == http.MethodPost {
		wb = append(wb, "\r\nContent-Length: "...)
		wb = strconv.AppendInt(wb, int64(len(body)), 10)
	}
	wb = append(wb, "\r\n\r\n"...)
	return append(wb, body...)
}

// readBody reads a reply body of declared length n (-1: unknown) whole,
// failing if it is longer than limit.
func readBody(r io.Reader, n, limit int64) ([]byte, error) {
	if n > limit {
		return nil, bodyTooLong(limit)
	}
	if n >= 0 {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("reading response body: %w", err)
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, fmt.Errorf("reading response body: %w", err)
	}
	if int64(len(buf)) > limit {
		return nil, bodyTooLong(limit)
	}
	return buf, nil
}

func bodyTooLong(limit int64) error {
	return fmt.Errorf("response body exceeds the %d-byte limit", limit)
}
