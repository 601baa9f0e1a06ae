package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"psd"
)

// parseRectSplit is parseRect as it was written over strings.Split: the
// reference for its values and error messages.
func parseRectSplit(s string) (psd.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return psd.Rect{}, fmt.Errorf("want lox,loy,hix,hiy, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return psd.Rect{}, fmt.Errorf("bad coordinate %q", p)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return psd.Rect{}, fmt.Errorf("non-finite coordinate %q", p)
		}
		v[i] = f
	}
	return rectFrom(v)
}

// encodeCountReply is the /count reply as json.Encoder writes the map the
// handler used to encode; ok is false where encoding/json refuses it.
func encodeCountReply(name string, q psd.Rect, val float64, cached bool) (b []byte, ok bool) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(map[string]any{
		"release": name,
		"rect":    [4]float64{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y},
		"count":   val,
		"cached":  cached,
	})
	return buf.Bytes(), err == nil
}

// referenceCount is the /count handler as it was before the query scan and
// the appended reply: url.Values, the strings.Split parser and a reflected
// map through writeJSON. handleCount must match it in status and body,
// byte for byte.
func (a *API) referenceCount(w http.ResponseWriter, r *http.Request) {
	rel, ok := a.release(w, r)
	if !ok {
		return
	}
	spec := r.URL.Query().Get("rect")
	if spec == "" {
		writeError(w, http.StatusBadRequest, "missing ?rect=lox,loy,hix,hiy")
		return
	}
	q, err := parseRectSplit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad rect: %v", err)
		return
	}
	val, cached, err := rel.CountCtx(r.Context(), q)
	if err != nil {
		a.countErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"release": rel.Name,
		"rect":    [4]float64{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y},
		"count":   val,
		"cached":  cached,
	})
}

// newCountTwins serves release name through API.Handler and through
// referenceCount, each with its own registry and cache, so the same
// request sequence keeps their cached flags in step.
func newCountTwins(t testing.TB, name string) *batchTwins {
	t.Helper()
	var artifact bytes.Buffer
	if err := buildTree(t, 47).WriteBinaryV3Release(&artifact); err != nil {
		t.Fatal(err)
	}
	api := func() *API {
		reg := NewRegistry(64)
		if _, err := reg.Register(name, "test", bytes.NewReader(artifact.Bytes())); err != nil {
			t.Fatal(err)
		}
		return &API{Registry: reg}
	}
	ref := api()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/releases/{name}/count", ref.referenceCount)
	return &batchTwins{direct: api().Handler(), reference: ref.recoverPanics(ref.shed(mux))}
}

// get sends a GET of path with raw query rawQuery to both handlers and
// fails unless status, content type and body bytes agree.
func (bt *batchTwins) get(t testing.TB, path, rawQuery string) *httptest.ResponseRecorder {
	t.Helper()
	var got [2]*httptest.ResponseRecorder
	for i, h := range []http.Handler{bt.direct, bt.reference} {
		req := httptest.NewRequest("GET", path, nil)
		req.URL.RawQuery = rawQuery
		got[i] = httptest.NewRecorder()
		h.ServeHTTP(got[i], req)
	}
	d, r := got[0], got[1]
	if d.Code != r.Code || d.Header().Get("Content-Type") != r.Header().Get("Content-Type") ||
		!bytes.Equal(d.Body.Bytes(), r.Body.Bytes()) {
		t.Fatalf("%s?%q:\ndirect    %d %q %q\nreference %d %q %q", path, rawQuery,
			d.Code, d.Header().Get("Content-Type"), d.Body.Bytes(),
			r.Code, r.Header().Get("Content-Type"), r.Body.Bytes())
	}
	return d
}

// FuzzCountQuery checks the /count fast path against its references. For
// any raw query, countQuery reads the same rect and version as
// url.ParseQuery; for any rect parameter, parseRect returns the rectangle
// and error message of the strings.Split parser; for any release name,
// count and cached flag, appendCountReply writes json.Encoder's bytes; and
// the handler answers the query with the status and bytes of
// referenceCount.
func FuzzCountQuery(f *testing.F) {
	for _, seed := range []struct {
		query, name string
		count       float64
	}{
		{"rect=0,0,50,50", "r", 12.5},
		{"rect=10,20,5,1&bt=17", "kd-h8@v12", 0},
		{"bt=3&rect=-0,-0,0,0", "r", -3.25e-9},
		{"rect=0,0,1,1&rect=2,2,3,3", "a<b>&c", 1e21},
		{"rect=+1,0,1,1", "r", 4},
		{"rect=1%2C2%2C3%2C4", `q"uo\te`, 5},
		{"rect=0,0,1,1;x=1", "r", 6},
		{"rect=%zz", "r", 7},
		{"rect= 1 , 2 ,3,4 ", "tab\tnew\nline", 8},
		{"rect=1,2,3", "r", 9},
		{"rect=1,2,3,4,5", "r", 10},
		{"rect=a,b,c,d", "r", 11},
		{"rect=NaN,0,1,1", "r", 12},
		{"rect=1e400,0,1,1", "r", 13},
		{"rect=0x1p-2,0,1,1", "r", 14},
		{"rect=", "r", 15},
		{"rect", "r", 16},
		{"=&&rect=0,0,1,1&", "é\u2028\xff", math.NaN()},
		{"version=v1&rect=0,0,1,1", "r", math.Inf(1)},
		{"version=bogus&rect=0,0,1,1", "r", 17},
		{"version=v1&version=v2", "r", 18},
		{"", "r", 19},
	} {
		f.Add(seed.query, seed.name, seed.count, seed.count > 10)
	}
	bt := newCountTwins(f, "r")
	f.Fuzz(func(t *testing.T, rawQuery, name string, count float64, cached bool) {
		rect, version := countQuery(&url.URL{RawQuery: rawQuery})
		want, _ := url.ParseQuery(rawQuery)
		if rect != want.Get("rect") || version != want.Get("version") {
			t.Fatalf("query %q: rect %q version %q, url.ParseQuery %q %q",
				rawQuery, rect, version, want.Get("rect"), want.Get("version"))
		}

		q, err := parseRect(rect)
		wantQ, wantErr := parseRectSplit(rect)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || q != wantQ {
			t.Fatalf("parseRect(%q) = %v, %v; strings.Split parser %v, %v", rect, q, err, wantQ, wantErr)
		}
		if err == nil {
			got, ok := appendCountReply(nil, name, q, count, cached)
			want, wantOK := encodeCountReply(name, q, count, cached)
			if ok != wantOK || (ok && !bytes.Equal(got, want)) {
				t.Fatalf("reply for %q, %v, %v, %v:\ngot  %v %s\nwant %v %s", name, q, count, cached, ok, got, wantOK, want)
			}
		}

		bt.get(t, "/v1/releases/r/count", rawQuery)
	})
}

// TestCountMatchesReference asks the same counts twice, the second time
// from the cache, with the version parameter and name@vN addressing on an
// unversioned release: every reply agrees with referenceCount, and the
// second is a hit.
func TestCountMatchesReference(t *testing.T) {
	bt := newCountTwins(t, "kd-h8_v1.x")
	for _, query := range []string{
		"rect=0,0,50,50", "rect=90,40,10,10&bt=7", "rect=-0,0,0.5,1e-9",
		"rect=33.3,12.5,33.4,99", "rect=0%2C0%2C50%2C50", "rect=0,0,50,50&version=v1",
		"rect=0,0,50,50&version=bogus",
	} {
		first := bt.get(t, "/v1/releases/kd-h8_v1.x/count", query)
		second := bt.get(t, "/v1/releases/kd-h8_v1.x/count", query)
		if first.Code == http.StatusOK && !strings.HasPrefix(second.Body.String(), `{"cached":true,`) {
			t.Fatalf("%q: second reply %s, want a cache hit", query, second.Body.Bytes())
		}
	}
	bt.get(t, "/v1/releases/kd-h8_v1.x@v1/count", "rect=0,0,1,1")
	bt.get(t, "/v1/releases/nosuch/count", "rect=0,0,1,1")
}

// TestCountHandlerAllocs pins the allocations of one cache-hit /count
// request through the whole handler stack: the panic-recovery wrapper's
// status writer, the mux's path match and the Content-Type header value.
// The query scan, the cache lookup and the appended reply allocate
// nothing.
func TestCountHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	var artifact bytes.Buffer
	if err := buildTree(t, 43).WriteBinaryV3Release(&artifact); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(64)
	if _, err := reg.Register("r", "test", bytes.NewReader(artifact.Bytes())); err != nil {
		t.Fatal(err)
	}
	h := (&API{Registry: reg}).Handler()
	req := httptest.NewRequest("GET", "/v1/releases/r/count?rect=10,20,55,70&bt=12", nil)
	w := &discardResponse{h: http.Header{}}
	serve := func() {
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serve() // warm the cache and the reply buffer pool
	const want = 3
	if got := testing.AllocsPerRun(100, serve); got != want {
		t.Fatalf("allocs per cache-hit /count request = %v, want %v", got, want)
	}
}
