package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"psd"
)

// decodeOnlyBatch is the /batch handler without the direct codec:
// encoding/json decodes the body straight from the request and the reply
// is a reflected map through writeJSON. It is the reference handleBatch
// must match in status and body, byte for byte.
func (a *API) decodeOnlyBatch(w http.ResponseWriter, r *http.Request) {
	rel, ok := a.release(w, r)
	if !ok {
		return
	}
	var req batchRequest
	body := http.MaxBytesReader(w, r.Body, a.maxBody())
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		if tooLarge(err) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"batch body exceeds the %d-byte limit", a.maxBody())
			return
		}
		writeError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(req.Rects) > a.maxBatch() {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d exceeds limit %d", len(req.Rects), a.maxBatch())
		return
	}
	qs := make([]psd.Rect, len(req.Rects))
	for i, v := range req.Rects {
		q, err := rectFrom(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "rect %d: %v", i, err)
			return
		}
		qs[i] = q
	}
	vals := make([]float64, len(qs))
	hits, bst, err := rel.CountBatchIntoCtx(r.Context(), vals, qs)
	if err != nil {
		a.countErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"release":    rel.Name,
		"counts":     vals,
		"cache_hits": hits,
		"stats":      bst,
	})
}

// batchTwins serves one release twice, each copy with its own registry and
// cache: through API.Handler and through decodeOnlyBatch. Feeding both the
// same request sequence keeps their caches, and so their cache_hits, in
// step.
type batchTwins struct {
	direct, reference http.Handler
}

func newBatchTwins(t testing.TB, name string, maxBody int64, maxBatch int) *batchTwins {
	t.Helper()
	var artifact bytes.Buffer
	if err := buildTree(t, 41).WriteBinaryV3Release(&artifact); err != nil {
		t.Fatal(err)
	}
	api := func() *API {
		reg := NewRegistry(64)
		if _, err := reg.Register(name, "test", bytes.NewReader(artifact.Bytes())); err != nil {
			t.Fatal(err)
		}
		return &API{Registry: reg, MaxBodyBytes: maxBody, MaxBatch: maxBatch}
	}
	ref := api()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/releases/{name}/batch", ref.decodeOnlyBatch)
	return &batchTwins{direct: api().Handler(), reference: ref.recoverPanics(ref.shed(mux))}
}

// post sends body to both handlers and fails unless status, content type
// and body bytes agree. It returns the direct handler's recorder.
func (bt *batchTwins) post(t testing.TB, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var got [2]*httptest.ResponseRecorder
	for i, h := range []http.Handler{bt.direct, bt.reference} {
		got[i] = httptest.NewRecorder()
		h.ServeHTTP(got[i], httptest.NewRequest("POST", path, bytes.NewReader(body)))
	}
	d, r := got[0], got[1]
	if d.Code != r.Code || d.Header().Get("Content-Type") != r.Header().Get("Content-Type") ||
		!bytes.Equal(d.Body.Bytes(), r.Body.Bytes()) {
		t.Fatalf("body %q:\ndirect    %d %q %q\nreference %d %q %q", body,
			d.Code, d.Header().Get("Content-Type"), d.Body.Bytes(),
			r.Code, r.Header().Get("Content-Type"), r.Body.Bytes())
	}
	return d
}

// FuzzBatchBody checks the direct /batch codec against encoding/json. For
// any body, parseBatchBody either declines or returns exactly the
// rectangles encoding/json decodes (same length, bit-identical values, -0
// included), and the handler answers with the status and bytes of the
// decode-only handler, so the 400/413 split is kept. The small body and
// batch limits put both 413 paths within reach.
func FuzzBatchBody(f *testing.F) {
	for _, seed := range []string{
		`{"rects":[[0,0,50,50],[10,10,90,40]]}`,
		` { "rects" : [ [ 0 , 0 , 50 , 50 ] ,` + "\n\t" + `[10,10,90,40] ] } ` + "\r\n",
		`{"rects":[]}`,
		`{"rects":[[1e1,2E-1,-3.5e+1,4.25]]}`,
		`{"Rects":[[0,0,1,1]]}`,
		`{"rects":[[0,0,1,1]],"extra":1}`,
		`{"extra":true,"rects":[[0,0,1,1]]}`,
		`{"rects":null}`,
		`null`,
		`{"rects":[[0,0,1]]}`,
		`{"rects":[[0,0,1,1,5]]}`,
		`{"rects":[[-0,-0,0,0]]}`,
		`{"rects":[[0,0,1e400,1]]}`,
		`{"rects":[[01,0,1,1]]}`,
		`{"rects":[[.5,0,1,1]]}`,
		`{"rects":[[1.,0,1,1]]}`,
		`{"rects":[[0,0,1,1]]}garbage`,
		`{"rects":[[0,0,1,1]]}{"rects":[]}`,
		`{"rects":[[0,0,1,1]`,
		`{"rects":[[0,0,1,`,
		`{"rec`,
		``,
		`{"rects":[[0,0,1,1],[0,0,2,2],[0,0,3,3],[0,0,4,4],[0,0,5,5],[0,0,6,6],[0,0,7,7],[0,0,8,8],[0,0,9,9]]}`,
		`{"rects":[[0,0,1,1]]}` + strings.Repeat(" ", 600),
		`{"rects":[` + strings.Repeat(`[0.123456789,0.123456789,99.87654321,99.87654321],`, 12) + `[0,0,1,1]]}`,
	} {
		f.Add([]byte(seed))
	}
	bt := newBatchTwins(f, "r", 512, 8)
	f.Fuzz(func(t *testing.T, body []byte) {
		if rects, ok := parseBatchBody(nil, body); ok {
			var req batchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json: %v", body, err)
			}
			if len(rects) != len(req.Rects) {
				t.Fatalf("%q: %d rects, encoding/json %d", body, len(rects), len(req.Rects))
			}
			for i := range rects {
				for j := range rects[i] {
					if math.Float64bits(rects[i][j]) != math.Float64bits(req.Rects[i][j]) {
						t.Fatalf("%q: rect %d = %v, encoding/json %v", body, i, rects[i], req.Rects[i])
					}
				}
			}
		}
		bt.post(t, "/v1/releases/r/batch", body)
	})
}

// TestBatchReplyBytes pins appendBatchReply to json.Encoder output of the
// map the handler used to encode, over counts at every formatting
// boundary, names that need escaping, and non-zero hits and stats.
func TestBatchReplyBytes(t *testing.T) {
	counts := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		1e-7, -1e-7, 9.99e-7, 1e-6, 1.5e-6, 0.1, 1, -1, 42, 123456789, 1 << 53,
		1e20, 1e21, -1e21, 1.7e22, 123456.789, math.MaxFloat64, -math.MaxFloat64,
	}
	st := psd.QueryStats{NodesAdded: 7, NodesVisited: 123, PartialLeaves: 3}
	for _, name := range []string{"r", "kd-h8@v12", "a<b>&c", `q"uo\te`, "tab\tnew\nline", "é\u2028\xff"} {
		for _, vals := range [][]float64{nil, {}, counts} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(map[string]any{
				"release": name, "counts": append([]float64{}, vals...), "cache_hits": 17, "stats": st,
			}); err != nil {
				t.Fatal(err)
			}
			got, ok := appendBatchReply(nil, name, vals, 17, st)
			if !ok || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("name %q:\ngot  %s\nwant %s", name, got, want.Bytes())
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendBatchReply(nil, "r", []float64{1, bad}, 0, st); ok {
			t.Fatalf("count %v encoded; encoding/json refuses it", bad)
		}
	}
	// Every float64 exponent, and the neighbours of the 'e' cut-offs.
	var cases []float64
	for e := -1074; e <= 1023; e++ {
		x := math.Ldexp(1, e)
		cases = append(cases, x, -x*1.1, math.Nextafter(x, 0))
	}
	for _, cut := range []float64{1e-6, 1e21} {
		cases = append(cases, math.Nextafter(cut, 0), cut, math.Nextafter(cut, math.Inf(1)))
	}
	for _, x := range cases {
		want, _ := json.Marshal(x)
		if got := appendJSONFloat(nil, x); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, encoding/json %s", x, got, want)
		}
	}
}

// TestBatchMatchesDecodeOnly posts a canonical batch twice through the
// direct and decode-only handlers: both replies, the second all cache
// hits with zero traversal stats, must agree byte for byte.
func TestBatchMatchesDecodeOnly(t *testing.T) {
	bt := newBatchTwins(t, "kd-h8_v1.x", 0, 0)
	body := []byte(`{"rects":[[0,0,50,50],[10,10,90,40],[-0,0,0.5,1e-9],[100,100,0,0],[33.3,12.5,33.4,99]]}`)
	first := bt.post(t, "/v1/releases/kd-h8_v1.x/batch", body)
	second := bt.post(t, "/v1/releases/kd-h8_v1.x/batch", body)
	var a, b struct {
		CacheHits int            `json:"cache_hits"`
		Stats     psd.QueryStats `json:"stats"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.CacheHits != 0 || a.Stats.NodesVisited == 0 || b.CacheHits != 5 || b.Stats != (psd.QueryStats{}) {
		t.Fatalf("first %+v, second %+v: want a cold then an all-hit batch", a, b)
	}
}

// discardResponse is a ResponseWriter that allocates nothing per write.
type discardResponse struct {
	h      http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }

// TestBatchHandlerAllocsFlat pins the /batch handler at a per-request
// allocation count independent of the batch size: with never-repeating
// rectangles against a full cache (every rectangle misses and every
// insert evicts), a 1024-rect request allocates exactly as often as a
// 64-rect one.
func TestBatchHandlerAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	tree := buildTree(t, 43)
	var artifact bytes.Buffer
	if err := tree.WriteBinaryV3Release(&artifact); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(256)
	if _, err := reg.Register("r", "test", bytes.NewReader(artifact.Bytes())); err != nil {
		t.Fatal(err)
	}
	h := (&API{Registry: reg}).Handler()
	d := tree.Domain()
	var seq uint64
	qs := make([]psd.Rect, 1024)
	var body []byte
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest("POST", "/v1/releases/r/batch", nil)
	req.Body = io.NopCloser(rd)
	w := &discardResponse{h: http.Header{}}
	serve := func(n int) {
		seq++
		churnRects(qs[:n], d, seq)
		body = appendBatchBody(body[:0], qs[:n])
		rd.Reset(body)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serve(1024) // fill the cache and size the pooled scratch
	allocs := func(n int) float64 { return testing.AllocsPerRun(100, func() { serve(n) }) }
	small, large := allocs(64), allocs(1024)
	t.Logf("allocs per /batch request: %v at 64 rects, %v at 1024", small, large)
	if small != large {
		t.Fatalf("allocs per /batch request: %v at 64 rects, %v at 1024", small, large)
	}
	rel, _ := reg.Get("r")
	if s := rel.Stats(); s.CacheEvictions == 0 || s.CacheHits != 0 {
		t.Fatalf("stats %+v: want every rectangle to miss and evict", s)
	}
}

// appendBatchBody writes qs as a canonical batch body, the way a client
// formats it.
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
