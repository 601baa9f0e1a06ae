package cluster

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"psd/internal/serve"
)

// BenchmarkProxyCount measures one cached single count end to end over
// loopback: client → Proxy → serve.API → Proxy → client. The answer comes
// from the replica's cache, so the two HTTP hops and the proxy's pooled
// backend connection are nearly all of the work. Allocs/op count the
// client, the proxy and the replica together.
func BenchmarkProxyCount(b *testing.B) {
	quiet := log.New(io.Discard, "", 0)
	reg := serve.NewRegistry(1 << 10)
	reg.SetLogger(quiet)
	if _, err := reg.Register("alpha", "bench", bytes.NewReader(fleetArtifact(b, fleetTree(b, 109)))); err != nil {
		b.Fatal(err)
	}
	api := &serve.API{Registry: reg, Logger: quiet}
	replica := httptest.NewServer(api.Handler())
	defer replica.Close()
	p := NewProxy([]string{replica.URL}, 0)
	p.Logger = quiet
	p.AttemptTimeout = 10 * time.Second // psdproxy's default
	p.SetReady(true)
	front := httptest.NewServer(p.Handler())
	defer front.Close()
	defer p.CloseIdleConnections()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	url := front.URL + "/v1/releases/alpha/count?rect=10,20,55,70"
	get := func() {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v", resp.StatusCode, err)
		}
	}
	get() // warm the cache and both connection pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}
