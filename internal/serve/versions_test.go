package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"psd"
	"psd/internal/serve/faultfs"
)

// writeBinArtifact writes a small valid binary release artifact to path.
func writeBinArtifact(t *testing.T, path string, seed int64) {
	t.Helper()
	tree := buildTree(t, seed)
	var buf bytes.Buffer
	if err := tree.WriteBinaryV3Release(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseKey(t *testing.T) {
	cases := []struct {
		key       string
		base      string
		v         int
		versioned bool
		bad       bool
	}{
		{"taxi", "taxi", 0, false, false},
		{"taxi@v1", "taxi", 1, true, false},
		{"taxi@v42", "taxi", 42, true, false},
		{"a.b-c_d@v7", "a.b-c_d", 7, true, false},
		{"taxi@v0", "", 0, true, true},
		{"taxi@v02", "", 0, true, true},
		{"taxi@2", "", 0, true, true},
		{"taxi@latest", "", 0, true, true},
		{"taxi@", "", 0, true, true},
		{"@v2", "", 0, true, true},
		{"taxi@v1@v2", "", 0, true, true},
		{"bad name", "", 0, false, true},
	}
	for _, c := range cases {
		base, v, versioned, err := parseKey(c.key)
		if c.bad {
			if err == nil {
				t.Errorf("parseKey(%q): want error", c.key)
			}
			continue
		}
		if err != nil || base != c.base || v != c.v || versioned != c.versioned {
			t.Errorf("parseKey(%q) = (%q, %d, %v, %v), want (%q, %d, %v, nil)",
				c.key, base, v, versioned, err, c.base, c.v, c.versioned)
		}
	}
}

func bytesReaderFor(t *testing.T, seed int64) *bytes.Reader {
	t.Helper()
	return bytes.NewReader(releaseBytes(t, buildTree(t, seed)))
}

// TestVersionedResolution pins default resolution, time travel, and promote.
func TestVersionedResolution(t *testing.T) {
	reg := NewRegistry(16)
	for v := 1; v <= 3; v++ {
		if _, err := reg.Register(fmt.Sprintf("taxi@v%d", v), "api", bytesReaderFor(t, int64(v))); err != nil {
			t.Fatal(err)
		}
	}
	// Bare name resolves to the latest version.
	rel, err := reg.Resolve("taxi", "")
	if err != nil || rel.Name != "taxi@v3" {
		t.Fatalf("Resolve(taxi) = %v, %v; want taxi@v3", rel, err)
	}
	// Time travel, both spellings.
	for _, spec := range []string{"v1", "1"} {
		rel, err = reg.Resolve("taxi", spec)
		if err != nil || rel.Name != "taxi@v1" {
			t.Fatalf("Resolve(taxi, %q) = %v, %v; want taxi@v1", spec, rel, err)
		}
	}
	// Explicit key in the name position.
	if rel, err = reg.Resolve("taxi@v2", ""); err != nil || rel.Name != "taxi@v2" {
		t.Fatalf("Resolve(taxi@v2) = %v, %v", rel, err)
	}
	if _, err = reg.Resolve("taxi@v2", "v1"); err == nil {
		t.Fatal("versioned name plus ?version= must be rejected")
	}
	if _, err = reg.Resolve("taxi", "v9"); err == nil {
		t.Fatal("missing version must not resolve")
	}

	// Promote pins; new registrations do not move the pin; unpin restores
	// latest-wins.
	if err := reg.Promote("taxi", 9); err == nil {
		t.Fatal("promoting an absent version must fail")
	}
	if err := reg.Promote("taxi", 2); err != nil {
		t.Fatal(err)
	}
	if rel, _ = reg.Resolve("taxi", ""); rel.Name != "taxi@v2" {
		t.Fatalf("pinned resolution = %s, want taxi@v2", rel.Name)
	}
	if _, err := reg.Register("taxi@v4", "api", bytesReaderFor(t, 4)); err != nil {
		t.Fatal(err)
	}
	if rel, _ = reg.Resolve("taxi", ""); rel.Name != "taxi@v2" {
		t.Fatalf("pin moved on new registration: %s", rel.Name)
	}
	vs := reg.Versions("taxi")
	if len(vs) != 4 || !vs[1].Pinned || !vs[1].Active || vs[3].Active {
		t.Fatalf("Versions = %+v", vs)
	}
	if err := reg.Promote("taxi", 0); err != nil {
		t.Fatal(err)
	}
	if rel, _ = reg.Resolve("taxi", ""); rel.Name != "taxi@v4" {
		t.Fatalf("unpinned resolution = %s, want taxi@v4", rel.Name)
	}

	// Removing the latest version re-derives latest.
	if !reg.Remove("taxi@v4") {
		t.Fatal("Remove(taxi@v4) = false")
	}
	if rel, _ = reg.Resolve("taxi", ""); rel.Name != "taxi@v3" {
		t.Fatalf("after removing v4: %s, want taxi@v3", rel.Name)
	}
	// Removing a pinned version releases the pin instead of 404ing the base.
	if err := reg.Promote("taxi", 1); err != nil {
		t.Fatal(err)
	}
	reg.Remove("taxi@v1")
	if rel, err = reg.Resolve("taxi", ""); err != nil || rel.Name != "taxi@v3" {
		t.Fatalf("after removing pinned v1: %v, %v; want taxi@v3", rel, err)
	}
}

// TestScanDirRetention: retention is file-driven. When the ingest tier
// prunes old artifacts (psdingest -keep), the next scan drops those
// versions, the bare name resolves to the newest survivor, and a pin on a
// pruned version is released rather than left pointing at nothing.
func TestScanDirRetention(t *testing.T) {
	dir := t.TempDir()
	for v := 1; v <= 5; v++ {
		writeBinArtifact(t, filepath.Join(dir, fmt.Sprintf("taxi@v%d.bin", v)), int64(v))
	}
	reg := NewRegistry(16)
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("taxi", 2); err != nil {
		t.Fatal(err)
	}
	if rel, err := reg.Resolve("taxi", ""); err != nil || rel.Name != "taxi@v2" {
		t.Fatalf("pinned Resolve = %v, %v; want taxi@v2", rel, err)
	}

	// What psdingest -keep 2 leaves behind after publishing v5.
	for v := 1; v <= 3; v++ {
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("taxi@v%d.bin", v))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, vi := range reg.Versions("taxi") {
		got = append(got, vi.Version)
		if vi.Pinned {
			t.Fatalf("v%d still pinned after the pinned v2 was pruned", vi.Version)
		}
	}
	if fmt.Sprint(got) != "[4 5]" {
		t.Fatalf("retained versions %v, want [4 5]", got)
	}
	if rel, err := reg.Resolve("taxi", ""); err != nil || rel.Name != "taxi@v5" {
		t.Fatalf("Resolve after prune = %v, %v; want taxi@v5", rel, err)
	}
	for _, v := range []string{"v1", "v2", "v3"} {
		if _, err := reg.Resolve("taxi", v); err == nil {
			t.Fatalf("pruned taxi@%s still resolves", v)
		}
	}
	// A survivor can still be pinned.
	if err := reg.Promote("taxi", 4); err != nil {
		t.Fatal(err)
	}
	if rel, err := reg.Resolve("taxi", ""); err != nil || rel.Name != "taxi@v4" {
		t.Fatalf("re-pinned Resolve = %v, %v; want taxi@v4", rel, err)
	}
}

// TestScanDirVersioned: versioned artifact files register under their full
// key, the bare base name serves the latest, and files pruned from the dir
// unregister on the next scan.
func TestScanDirVersioned(t *testing.T) {
	dir := t.TempDir()
	writeBinArtifact(t, filepath.Join(dir, "taxi@v1.bin"), 1)
	writeBinArtifact(t, filepath.Join(dir, "taxi@v2.bin"), 2)
	reg := NewRegistry(16)
	loaded, _, err := reg.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %v", loaded)
	}
	rel, err := reg.Resolve("taxi", "")
	if err != nil || rel.Name != "taxi@v2" {
		t.Fatalf("Resolve = %v, %v", rel, err)
	}
	if _, err := reg.Resolve("taxi", "v1"); err != nil {
		t.Fatal("time travel to v1 failed:", err)
	}

	// The ingest tier prunes v1; the next scan mirrors that.
	if err := os.Remove(filepath.Join(dir, "taxi@v1.bin")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Resolve("taxi", "v1"); err == nil {
		t.Fatal("vanished v1 still resolves")
	}
	if rel, _ := reg.Resolve("taxi", ""); rel.Name != "taxi@v2" {
		t.Fatalf("latest after prune = %s", rel.Name)
	}
}

// TestScanDirConflict: a bare name.bin next to a versioned family is
// rejected by name with a clear quarantine reason, re-evaluated every scan —
// and clears itself the moment the ambiguity is resolved.
func TestScanDirConflict(t *testing.T) {
	dir := t.TempDir()
	writeBinArtifact(t, filepath.Join(dir, "taxi.bin"), 1)
	reg := NewRegistry(16)
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	if rel, err := reg.Resolve("taxi", ""); err != nil || rel.Name != "taxi" {
		t.Fatalf("bare load failed: %v, %v", rel, err)
	}

	// A versioned sibling appears: the bare file becomes ambiguous. It is
	// quarantined AND its live entry is dropped, so the family takes over.
	writeBinArtifact(t, filepath.Join(dir, "taxi@v1.bin"), 2)
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	q := reg.Quarantined()
	if len(q) != 1 || q[0].Kind != quarantineConflict {
		t.Fatalf("quarantine = %+v, want one conflict entry", q)
	}
	if q[0].Path != filepath.Join(dir, "taxi.bin") {
		t.Fatalf("quarantined path = %s", q[0].Path)
	}
	rel, err := reg.Resolve("taxi", "")
	if err != nil || rel.Name != "taxi@v1" {
		t.Fatalf("conflicted bare name did not yield to the family: %v, %v", rel, err)
	}

	// The conflict stands (and stays quarantined) across rescans.
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	if reg.QuarantineLen() != 1 {
		t.Fatal("conflict record lost across rescans")
	}

	// Removing the family resolves the ambiguity: the bare file loads again.
	if err := os.Remove(filepath.Join(dir, "taxi@v1.bin")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	if reg.QuarantineLen() != 0 {
		t.Fatalf("conflict did not clear: %+v", reg.Quarantined())
	}
	if rel, err := reg.Resolve("taxi", ""); err != nil || rel.Name != "taxi" {
		t.Fatalf("bare file not reinstated: %v, %v", rel, err)
	}
}

// TestScanDirBadVersionSuffix: malformed '@' spellings are rejected by name
// alone — quarantined with a reason that says what is wrong, bytes unread.
func TestScanDirBadVersionSuffix(t *testing.T) {
	dir := t.TempDir()
	writeBinArtifact(t, filepath.Join(dir, "taxi@v02.bin"), 1)
	writeBinArtifact(t, filepath.Join(dir, "taxi@latest.bin"), 2)
	reg := NewRegistry(16)
	ffs := faultfs.New()
	reg.SetFS(ffs)
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	q := reg.Quarantined()
	if len(q) != 2 {
		t.Fatalf("quarantine = %+v, want 2 conflict entries", q)
	}
	for _, e := range q {
		if e.Kind != quarantineConflict {
			t.Fatalf("kind = %s, want conflict", e.Kind)
		}
	}
	if n := ffs.OpenCount(filepath.Join(dir, "taxi@v02.bin")); n != 0 {
		t.Fatalf("misnamed file was opened %d times; rejection must be by name alone", n)
	}
	if reg.Len() != 0 {
		t.Fatalf("registry has %d entries, want 0", reg.Len())
	}
}

// TestVersionedHTTP drives the whole surface over HTTP: upload versions,
// default + time-travel queries, the versions listing, promote, unpin.
func TestVersionedHTTP(t *testing.T) {
	reg := NewRegistry(1024)
	api := &API{Registry: reg}
	srv := newTestServer(t, api)

	tree1, tree2 := buildTree(t, 1), buildTree(t, 2)
	postJSON(t, srv.URL+"/v1/releases/taxi@v1", releaseBytes(t, tree1), http.StatusCreated, nil)
	postJSON(t, srv.URL+"/v1/releases/taxi@v2", releaseBytes(t, tree2), http.StatusCreated, nil)
	postJSON(t, srv.URL+"/v1/releases/taxi@v02", releaseBytes(t, tree2), http.StatusBadRequest, nil)

	q := psd.NewRect(10, 20, 55, 70)
	rect := fmt.Sprintf("rect=%g,%g,%g,%g", q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y)
	var out struct {
		Release string  `json:"release"`
		Count   float64 `json:"count"`
	}
	getJSON(t, srv.URL+"/v1/releases/taxi/count?"+rect, http.StatusOK, &out)
	if out.Release != "taxi@v2" || out.Count != tree2.Count(q) {
		t.Fatalf("default resolution answered %+v, want taxi@v2=%v", out, tree2.Count(q))
	}
	getJSON(t, srv.URL+"/v1/releases/taxi/count?version=v1&"+rect, http.StatusOK, &out)
	if out.Release != "taxi@v1" || out.Count != tree1.Count(q) {
		t.Fatalf("time travel answered %+v, want taxi@v1=%v", out, tree1.Count(q))
	}
	getJSON(t, srv.URL+"/v1/releases/taxi/count?version=v9&"+rect, http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/v1/releases/taxi/count?version=bogus&"+rect, http.StatusBadRequest, nil)

	var vlist struct {
		Versions []VersionInfo `json:"versions"`
	}
	getJSON(t, srv.URL+"/v1/releases/taxi/versions", http.StatusOK, &vlist)
	if len(vlist.Versions) != 2 || !vlist.Versions[1].Active {
		t.Fatalf("versions = %+v", vlist.Versions)
	}
	getJSON(t, srv.URL+"/v1/releases/nosuch/versions", http.StatusNotFound, nil)

	postJSON(t, srv.URL+"/v1/releases/taxi/promote?version=1", nil, http.StatusOK, nil)
	getJSON(t, srv.URL+"/v1/releases/taxi/count?"+rect, http.StatusOK, &out)
	if out.Release != "taxi@v1" {
		t.Fatalf("after promote: %s", out.Release)
	}
	postJSON(t, srv.URL+"/v1/releases/taxi/promote?version=9", nil, http.StatusNotFound, nil)
	postJSON(t, srv.URL+"/v1/releases/taxi/promote?version=latest", nil, http.StatusOK, nil)
	getJSON(t, srv.URL+"/v1/releases/taxi/count?"+rect, http.StatusOK, &out)
	if out.Release != "taxi@v2" {
		t.Fatalf("after unpin: %s", out.Release)
	}
}
