package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"psd"
	"psd/internal/serve/faultfs"
)

// manifestFor builds a manifest over already-written artifact files,
// checksumming each the way a publisher would.
func manifestFor(t *testing.T, version string, artifacts map[string]string) Manifest {
	t.Helper()
	m := Manifest{Version: version}
	for name, path := range artifacts {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m.Releases = append(m.Releases, ManifestEntry{Name: name, Path: path, CRC64: ChecksumBytes(data)})
	}
	return m
}

func TestManifestApplyAndOwnership(t *testing.T) {
	dir := t.TempDir()
	treeA, treeB := buildTree(t, 11), buildTree(t, 22)
	pathA := filepath.Join(dir, "a.bin")
	pathB := filepath.Join(dir, "b.bin")
	writeFile(t, pathA, releaseBytes(t, treeA))
	writeFile(t, pathB, releaseBytes(t, treeB))

	reg := NewRegistry(256)
	reg.SetLogger(log.New(io.Discard, "", 0))
	api := &API{Registry: reg}
	srv := newTestServer(t, api)

	// No manifest applied yet: GET 404s.
	getJSON(t, srv.URL+"/v1/manifest", http.StatusNotFound, nil)

	// A hand-registered release, to prove manifests leave it alone.
	postJSON(t, srv.URL+"/v1/releases/manual", releaseBytes(t, treeA), http.StatusCreated, nil)

	// Apply v1: two releases.
	m1 := manifestFor(t, "v1", map[string]string{"alpha": pathA, "beta": pathB})
	body, _ := json.Marshal(m1)
	var st ManifestStatus
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusOK, &st)
	if st.Manifest.Version != "v1" || len(st.Manifest.Releases) != 2 {
		t.Fatalf("apply status = %+v", st)
	}
	getJSON(t, srv.URL+"/v1/manifest", http.StatusOK, &st)
	if st.Manifest.Version != "v1" {
		t.Fatalf("GET manifest version = %q, want v1", st.Manifest.Version)
	}

	// Served answers match the source trees bit-for-bit.
	q := psd.NewRect(5, 5, 80, 60)
	var got struct {
		Count float64 `json:"count"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/releases/alpha/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y), http.StatusOK, &got)
	if want := treeA.Count(q); got.Count != want {
		t.Fatalf("alpha count %v, want %v", got.Count, want)
	}

	// Apply v2: beta gone, alpha now serves tree B's artifact. The
	// manifest owns its release set — beta is removed — but the manual
	// release survives.
	m2 := manifestFor(t, "v2", map[string]string{"alpha": pathB})
	body, _ = json.Marshal(m2)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusOK, &st)
	if st.Manifest.Version != "v2" {
		t.Fatalf("v2 apply status = %+v", st)
	}
	getJSON(t, srv.URL+"/v1/releases/beta/count?rect=0,0,1,1", http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/v1/releases/manual/count?rect=0,0,1,1", http.StatusOK, nil)
	getJSON(t, fmt.Sprintf("%s/v1/releases/alpha/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y), http.StatusOK, &got)
	if want := treeB.Count(q); got.Count != want {
		t.Fatalf("alpha after v2: count %v, want %v (tree B)", got.Count, want)
	}
}

// TestManifestApplyIsAtomic pins the rollback contract: a manifest that
// fails on any artifact — checksum mismatch, corrupt bytes, unreadable
// path — changes nothing at all.
func TestManifestApplyIsAtomic(t *testing.T) {
	dir := t.TempDir()
	tree := buildTree(t, 33)
	goodPath := filepath.Join(dir, "good.bin")
	writeFile(t, goodPath, releaseBytes(t, tree))

	reg := NewRegistry(256)
	reg.SetLogger(log.New(io.Discard, "", 0))
	api := &API{Registry: reg}
	srv := newTestServer(t, api)

	m1 := manifestFor(t, "v1", map[string]string{"alpha": goodPath})
	body, _ := json.Marshal(m1)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusOK, nil)

	// Checksum mismatch: manifest lies about the bytes.
	bad := m1
	bad.Version = "v2"
	bad.Releases = append([]ManifestEntry(nil), m1.Releases...)
	bad.Releases[0].CRC64 = ChecksumBytes([]byte("not the file"))
	bad.Releases = append(bad.Releases, ManifestEntry{
		Name: "newrel", Path: goodPath, CRC64: ChecksumBytes(releaseBytes(t, tree))})
	body, _ = json.Marshal(bad)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusBadRequest, nil)

	// Corrupt artifact whose checksum is honest (decode fails).
	corruptPath := filepath.Join(dir, "corrupt.bin")
	writeFile(t, corruptPath, []byte("garbage artifact"))
	m3 := manifestFor(t, "v3", map[string]string{"alpha": corruptPath})
	body, _ = json.Marshal(m3)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusBadRequest, nil)

	// Unreadable path.
	m4 := manifestFor(t, "v4", map[string]string{"alpha": goodPath})
	m4.Releases[0].Path = filepath.Join(dir, "missing.bin")
	body, _ = json.Marshal(m4)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusBadRequest, nil)

	// Transient read fault through the FS seam.
	ffs := faultfs.New()
	ffs.Set(goodPath, faultfs.Fault{ReadErr: errors.New("injected EIO")})
	reg.SetFS(ffs)
	m5 := manifestFor(t, "v5", map[string]string{"alpha": goodPath})
	body, _ = json.Marshal(m5)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusBadRequest, nil)

	// After all four failures: still v1, still serving, answers intact.
	var st ManifestStatus
	getJSON(t, srv.URL+"/v1/manifest", http.StatusOK, &st)
	if st.Manifest.Version != "v1" {
		t.Fatalf("after failed applies: version %q, want v1", st.Manifest.Version)
	}
	q := psd.NewRect(10, 10, 90, 90)
	var got struct {
		Count float64 `json:"count"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/releases/alpha/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y), http.StatusOK, &got)
	if want := tree.Count(q); got.Count != want {
		t.Fatalf("alpha count after failed applies %v, want %v", got.Count, want)
	}
	getJSON(t, srv.URL+"/v1/releases/newrel/count?rect=0,0,1,1", http.StatusNotFound, nil)
}

func TestManifestValidate(t *testing.T) {
	good := ManifestEntry{Name: "a", Path: "/x/a.bin", CRC64: ChecksumBytes([]byte("x"))}
	cases := []struct {
		name string
		m    Manifest
	}{
		{"no version", Manifest{Releases: []ManifestEntry{good}}},
		{"no releases", Manifest{Version: "v1"}},
		{"duplicate name", Manifest{Version: "v1", Releases: []ManifestEntry{good, good}}},
		{"no path", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "a", CRC64: good.CRC64}}}},
		{"bad crc", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "a", Path: "/x", CRC64: "zz"}}}},
		{"bad name", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "../evil", Path: "/x", CRC64: good.CRC64}}}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.m)
		}
	}
	ok := Manifest{Version: "v1", Releases: []ManifestEntry{good}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

// TestTransientBackoffJitterDecorrelates pins the full-jitter satellite:
// two registries with the same retryBase must not produce identical
// retry schedules — that lockstep is exactly what re-thunders a shared
// filer after a blip.
func TestTransientBackoffJitterDecorrelates(t *testing.T) {
	// The draw itself: bounded by the ceiling, not constant.
	const samples = 8
	drawsA := make([]time.Duration, samples)
	drawsB := make([]time.Duration, samples)
	for i := 0; i < samples; i++ {
		drawsA[i] = fullJitter(time.Hour)
		drawsB[i] = fullJitter(time.Hour)
		for _, d := range []time.Duration{drawsA[i], drawsB[i]} {
			if d < 0 || d > time.Hour {
				t.Fatalf("fullJitter(1h) = %v, outside [0, 1h]", d)
			}
		}
	}
	same := true
	for i := range drawsA {
		if drawsA[i] != drawsB[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("two independent jitter sequences identical: %v", drawsA)
	}
	if fullJitter(0) != 0 {
		t.Fatal("fullJitter(0) != 0")
	}

	// End to end: two replicas watching the same flaky artifact with the
	// same retryBase record different drawn delays.
	dir := t.TempDir()
	path := filepath.Join(dir, "flaky.bin")
	writeFile(t, path, releaseBytes(t, buildTree(t, 55)))
	errIO := errors.New("injected EIO")

	delays := make(map[*Registry]time.Duration)
	mkReg := func() *Registry {
		ffs := faultfs.New()
		ffs.Set(path, faultfs.Fault{ReadErr: errIO})
		var logBuf bytes.Buffer
		reg := quietRegistry(64, ffs, &logBuf)
		reg.retryBase = time.Hour
		reg.jitter = func(d time.Duration) time.Duration {
			v := fullJitter(d) // the real draw, recorded
			delays[reg] = v
			return v
		}
		return reg
	}
	reg1, reg2 := mkReg(), mkReg()
	reg1.ScanDir(dir)
	reg2.ScanDir(dir)
	d1, ok1 := delays[reg1]
	d2, ok2 := delays[reg2]
	if !ok1 || !ok2 {
		t.Fatalf("jitter draw not recorded: %v %v", ok1, ok2)
	}
	if d1 > time.Hour || d2 > time.Hour {
		t.Fatalf("drawn delays %v, %v exceed the retryBase ceiling", d1, d2)
	}
	if d1 == d2 {
		t.Fatalf("two same-retryBase registries drew the identical delay %v", d1)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition: content type,
// server gauges, and per-release counters consistent with /stats.
func TestMetricsEndpoint(t *testing.T) {
	tree := buildTree(t, 66)
	reg := NewRegistry(256)
	reg.SetLogger(log.New(io.Discard, "", 0))
	api := &API{Registry: reg}
	api.SetReady(true)
	srv := newTestServer(t, api)

	postJSON(t, srv.URL+"/v1/releases/roads", releaseBytes(t, tree), http.StatusCreated, nil)
	// Two identical queries: 2 requests, 1 cache hit.
	for i := 0; i < 2; i++ {
		getJSON(t, srv.URL+"/v1/releases/roads/count?rect=0,0,50,50", http.StatusOK, nil)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	rel, _ := reg.Get("roads")
	if rel.Stats().CacheBytes <= 0 || rel.Bytes <= 0 {
		t.Fatalf("cache_bytes %d, artifact bytes %d; want both > 0", rel.Stats().CacheBytes, rel.Bytes)
	}
	for _, want := range []string{
		"# TYPE psdserve_ready gauge",
		"psdserve_ready 1",
		"psdserve_releases 1",
		"# TYPE psdserve_release_requests_total counter",
		`psdserve_release_requests_total{release="roads"} 2`,
		`psdserve_release_cache_hits_total{release="roads"} 1`,
		"# TYPE psdserve_release_cache_bytes gauge",
		fmt.Sprintf(`psdserve_release_cache_bytes{release="roads"} %d`, rel.Stats().CacheBytes),
		"# TYPE psdserve_release_artifact_bytes gauge",
		fmt.Sprintf(`psdserve_release_artifact_bytes{release="roads"} %d`, rel.Bytes),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	// Exposition sanity: every non-comment line is name[{labels}] value.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}
