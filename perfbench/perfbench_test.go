package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"psd/internal/ingest"
)

// smokeScale shrinks every workload so the whole suite runs in seconds.
var smokeScale = scale{
	dataPoints:     20_000,
	setupReps:      2,
	countSetupReps: 2,
	quadHeight:     6,
	treeHeight:     5,
	poolPerRelease: 64,
	countRefRate:   200,
	countLadder:    []float64{300, 400},
	countP99Limit:  50 * time.Millisecond,
	batchRects:     32,
	ingestBase:     5_000,
	ingestBatch:    100,
	ingestRate:     50,
	nudgeEvery:     20,
	publishCycles:  3,
	readRate:       100,
}

func TestInputsHashFollowsSeed(t *testing.T) {
	for _, wl := range []string{wlCountHot, wlBatchUnique, wlIngestPublish} {
		a, err := inputsHash(wl, 1, smokeScale, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := inputsHash(wl, 1, smokeScale, 2*time.Second)
		c, _ := inputsHash(wl, 2, smokeScale, 2*time.Second)
		if a != b {
			t.Errorf("%s: seed 1 gave hashes %x and %x", wl, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both gave hash %x", wl, a)
		}
	}
}

func countBody(t *testing.T, release string, count float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"release": release, "count": count})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTallyCountsFlippedAnswer(t *testing.T) {
	var tl tally
	want := 1234.5
	tl.checkCount("ok", response{status: 200, body: countBody(t, "r", want)}, "r", want)
	if tl.failed != 0 {
		t.Fatalf("correct answer counted as failure: %v", tl.notes)
	}
	flipped := math.Float64frombits(math.Float64bits(want) ^ 1)
	tl.checkCount("flipped", response{status: 200, body: countBody(t, "r", flipped)}, "r", want)
	if tl.attempted != 2 || tl.failed != 1 || tl.wrong != 1 {
		t.Fatalf("flipped answer: attempted=%d failed=%d wrong=%d, want 2/1/1", tl.attempted, tl.failed, tl.wrong)
	}
	got := []float64{1, flipped}
	tl.checkBatch("batch", len(got), answerSum(got), []float64{1, want})
	if tl.failed != 2 {
		t.Fatalf("flipped batch answer not counted: failed=%d", tl.failed)
	}
}

func TestTallyCounts503(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"server at capacity"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := newClient()
	defer c.close()
	status, body, err := c.do("GET", srv.URL+"/v1/releases/r/count?rect=0,0,1,1", nil)
	var tl tally
	tl.checkCount("shed", response{status: status, body: body, err: err}, "r", 0)
	if tl.failed != 1 || tl.sheds != 1 || tl.non200 != 1 {
		t.Fatalf("503: failed=%d sheds=%d non200=%d, want 1/1/1", tl.failed, tl.sheds, tl.non200)
	}
}

func TestAuditCountsLostAck(t *testing.T) {
	checks := []ingest.VersionCheck{{Version: 1, OK: true}, {Version: 2, OK: true}}
	st := ingest.Stats{Points: 1000, Published: 2, Spent: 2 * ingestEps}
	res := newResult()
	auditIngest(res, st, checks, 0, 1000, 2)
	if res.failed != 0 {
		t.Fatalf("clean state failed the audit: %v", res.notes)
	}
	res = newResult()
	auditIngest(res, st, checks, 0, 1001, 2) // one more point acknowledged than the WAL holds
	if res.failed != 1 || res.audits["wal_points"] {
		t.Fatalf("lost ack: failed=%d audits=%v", res.failed, res.audits)
	}
	res = newResult()
	st.Spent = 3 * ingestEps
	auditIngest(res, st, checks, 0, 1000, 2)
	if res.failed != 1 || res.audits["ledger_spend"] {
		t.Fatalf("over-charged ledger: failed=%d audits=%v", res.failed, res.audits)
	}
}

func TestKneeRate(t *testing.T) {
	if got := kneeRate(1000, 1, 2000, 4, 2); math.Abs(got-1500) > 1e-9 {
		t.Errorf("kneeRate halfway in log p99 = %v, want 1500", got)
	}
	if got := kneeRate(0, 0, 1000, 5, 2); got != 0 {
		t.Errorf("no passing rung: %v, want 0", got)
	}
	if got := kneeRate(1000, 1, 2000, math.Inf(1), 2); got != 1000 {
		t.Errorf("failing rung fell behind: %v, want the passing rate", got)
	}
}

func TestPercentileEvidence(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	p := percentile(xs, 0.99)
	if p.Value != 990 || p.N != 1000 || p.Beyond != 10 || !p.Firm {
		t.Errorf("p99 of 1..1000 = %+v", p)
	}
	if p := percentile(xs[:500], 0.99); p.Firm {
		t.Errorf("p99 of 500 samples has %d beyond, reported firm", p.Beyond)
	}
}

// designAudits are the checks a traced run makes of its workload's
// design: the cache hot and every request proxied on count-hot, the cache
// cold and no proxy on batch-unique, one fsync per ack and a publish on
// ingest-publish.
var designAudits = map[string][]string{
	wlCountHot:      {"cache_hot", "proxied"},
	wlBatchUnique:   {"cache_cold", "unproxied"},
	wlIngestPublish: {"one_fsync_per_ack", "traced_publish"},
}

// TestSmoke runs every workload end to end at a tiny scale, untraced and
// traced, and checks what the benchmark promises: every answer correct,
// every audit passed, every end-to-end metric measured, and the design
// audits made.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{wlCountHot, wlBatchUnique, wlIngestPublish} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl, seed: 3, seconds: 2 * time.Second, trace: trace, workdir: t.TempDir(), commit: "test", sc: smokeScale}
			res, host, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted=%d failed=%d: %v", wl, trace, res.attempted, res.failed, res.notes)
			}
			for name, ok := range res.audits {
				if !ok {
					t.Errorf("%s trace=%v: audit %s failed", wl, trace, name)
				}
			}
			var out strings.Builder
			if err := report(cfg, host, res, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last lastLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !last.Correct || len(last.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: correct=%v with %d metrics", wl, trace, last.Correct, len(last.Metrics))
			}
			if !trace {
				for _, d := range endToEnd {
					if v := last.Metrics[d.name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", wl, d.name, v)
					}
				}
				continue
			}
			// The traced run audits the workload's design itself; each
			// audit must have run, so a design check cannot vanish.
			for _, name := range designAudits[wl] {
				if _, ok := res.audits[name]; !ok {
					t.Errorf("%s: design audit %s did not run", wl, name)
				}
			}
		}
	}
}
