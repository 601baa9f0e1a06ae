package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"psd"
)

func TestParseRect(t *testing.T) {
	r, err := parseRect("1,2,3,4")
	if err != nil {
		t.Fatal(err)
	}
	if r != psd.NewRect(1, 2, 3, 4) {
		t.Errorf("parseRect = %v", r)
	}
	// Swapped corners normalize.
	r, err = parseRect("3,4,1,2")
	if err != nil {
		t.Fatal(err)
	}
	if r != psd.NewRect(1, 2, 3, 4) {
		t.Errorf("normalized parseRect = %v", r)
	}
	// Whitespace tolerated.
	if _, err := parseRect(" 1 , 2 , 3 , 4 "); err != nil {
		t.Errorf("whitespace should parse: %v", err)
	}
	for _, bad := range []string{"", "1,2,3", "1,2,3,4,5", "a,b,c,d"} {
		if _, err := parseRect(bad); err == nil {
			t.Errorf("parseRect(%q) should error", bad)
		}
	}
}

func TestRectFlagAccumulates(t *testing.T) {
	var rf rectFlag
	if err := rf.Set("0,0,1,1"); err != nil {
		t.Fatal(err)
	}
	if err := rf.Set("2,2,3,3"); err != nil {
		t.Fatal(err)
	}
	if len(rf) != 2 {
		t.Errorf("len = %d, want 2", len(rf))
	}
	if rf.String() == "" {
		t.Error("String should format")
	}
	if err := rf.Set("junk"); err == nil {
		t.Error("bad rect should error")
	}
}

func TestFormatOf(t *testing.T) {
	for path, want := range map[string]string{
		"x.bin": "binary", "x.BIN": "binary", "dir/y.bin": "binary",
		"x.json": "json", "x": "json", "x.bin.json": "json",
	} {
		if got := formatOf(path); got != want {
			t.Errorf("formatOf(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestConvertRoundTrip drives the convert subcommand's core both ways
// against the committed golden quadtree fixture: json -> bin -> json must
// reproduce the input byte-identically (the bin leg is v3, opened zero-copy
// by OpenSlabFile), and the intermediate binary must answer queries like
// the original.
func TestConvertRoundTrip(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "release_quadtree.json")
	dir := t.TempDir()
	binPath := filepath.Join(dir, "r.bin")
	jsonPath := filepath.Join(dir, "r.json")

	slab1, n, err := convert(src, binPath)
	if err != nil {
		t.Fatal(err)
	}
	if n%64 != 16 { // v3 sections are 64-aligned; the 16-byte footer ends the file
		t.Errorf("binary artifact is %d bytes; want 64-aligned v3 body + 16-byte footer", n)
	}
	slab2, _, err := convert(binPath, jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("json -> bin -> json round trip is not byte-identical")
	}
	for _, q := range []psd.Rect{
		psd.NewRect(0, 0, 100, 100),
		psd.NewRect(25, 25, 75, 75),
		psd.NewRect(47, 47, 53, 53),
	} {
		if a, b := slab1.Count(q), slab2.Count(q); a != b {
			t.Errorf("converted releases disagree on %v: %v vs %v", q, a, b)
		}
	}

	if _, _, err := convert(filepath.Join(dir, "missing.json"), binPath); err == nil {
		t.Error("convert of a missing file should error")
	}
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := convert(junk, binPath); err == nil {
		t.Error("convert of a junk artifact should error")
	}
}

// TestConvertV3RoundTrip pins the v2 -> v3 migration path for every
// committed fixture: `convert -in release_<kind>.bin -out x.bin` yields the
// committed release_<kind>.v3.bin byte-for-byte, the result opens with
// OpenSlabFile and passes Verify, and converting it on to JSON reproduces
// the committed JSON fixture.
func TestConvertV3RoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"quadtree", "kd", "kd-hybrid", "hilbert-r", "kd-cell", "kd-noisymean", "privtree"} {
		base := filepath.Join("..", "..", "testdata", "release_"+kind)
		v3Path := filepath.Join(dir, kind+".bin")
		v2slab, _, err := convert(base+".bin", v3Path)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		v2slab.Close()
		want, err := os.ReadFile(base + ".v3.bin")
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(v3Path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: v2 -> bin differs from the committed v3 fixture", kind)
		}
		opened, err := psd.OpenSlabFile(v3Path)
		if err != nil {
			t.Fatalf("%s: OpenSlabFile: %v", kind, err)
		}
		if err := opened.Verify(); err != nil {
			t.Errorf("%s: Verify: %v", kind, err)
		}
		if err := opened.Close(); err != nil {
			t.Fatal(err)
		}
		jsonPath := filepath.Join(dir, kind+".json")
		back, _, err := convert(v3Path, jsonPath)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		back.Close()
		wantJSON, err := os.ReadFile(base + ".json")
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s: v2 -> v3 -> json differs from the committed JSON fixture", kind)
		}
	}
}

// TestConvertPrivTreeGolden runs the converter over the adaptive-kind
// golden fixtures: the committed JSON converts to the committed v3 artifact
// byte-for-byte, the committed v2 artifact converts back to the committed
// JSON, and the reopened slabs keep the partial publication (pruned
// adaptive leaves reported as regions).
func TestConvertPrivTreeGolden(t *testing.T) {
	srcJSON := filepath.Join("..", "..", "testdata", "release_privtree.json")
	srcBin := filepath.Join("..", "..", "testdata", "release_privtree.bin")
	srcV3 := filepath.Join("..", "..", "testdata", "release_privtree.v3.bin")
	dir := t.TempDir()

	slab, _, err := convert(srcJSON, filepath.Join(dir, "p.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if slab.Kind() != "privtree" {
		t.Fatalf("kind %q", slab.Kind())
	}
	want, err := os.ReadFile(srcV3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "p.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("converted binary differs from the committed privtree v3 fixture")
	}
	back, _, err := convert(srcBin, filepath.Join(dir, "p.json"))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := slab.NumRegions(), back.NumRegions(); a != b || a == 0 {
		t.Errorf("regions %d vs %d", a, b)
	}
	wantJSON, err := os.ReadFile(srcJSON)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := os.ReadFile(filepath.Join(dir, "p.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("converted JSON differs from the committed privtree fixture")
	}
}

// TestBuildPrivTreeFromCSV drives the tool's build path end-to-end for the
// adaptive kind: skewed CSV points in, a binary release out, reopened and
// queried. This is the datagen -> psdtool -> psdserve artifact shape.
func TestBuildPrivTreeFromCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "pts.csv")
	f, err := os.Create(csv)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic skewed cloud: most mass near the origin.
	s := uint64(9)
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / float64(1<<53)
	}
	for i := 0; i < 4000; i++ {
		x, y := next()*100, next()*100
		if i%2 == 0 {
			x, y = x*0.1, y*0.1
		}
		fmt.Fprintf(f, "%g,%g\n", x, y)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	pts, err := readPoints(csv)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := psd.Build(pts, psd.NewRect(0, 0, 100, 100), psd.Options{
		Kind: psd.PrivTreeKind, MaxDepth: 5, Epsilon: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "roads.bin")
	if _, err := writeRelease(tree, out); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := psd.OpenSlab(g)
	g.Close()
	if err != nil {
		t.Fatal(err)
	}
	q := psd.NewRect(0, 0, 10, 10)
	if got, want := slab.Count(q), tree.Count(q); got != want {
		t.Errorf("reopened count %v, want %v", got, want)
	}
}

// TestWriteRelease pins the -out flag's writer: both encodings open again
// and answer like the built tree.
func TestWriteRelease(t *testing.T) {
	dom := psd.NewRect(0, 0, 10, 10)
	pts := []psd.Point{{X: 1, Y: 1}, {X: 2, Y: 7}, {X: 8, Y: 3}, {X: 9, Y: 9}}
	tree, err := psd.Build(pts, dom, psd.Options{Height: 2, Epsilon: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"r.json", "r.bin"} {
		path := filepath.Join(dir, name)
		n, err := writeRelease(tree, path)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatalf("%s: wrote %d bytes", name, n)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		slab, err := psd.OpenSlab(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q := psd.NewRect(0, 0, 5, 5)
		if got, want := slab.Count(q), tree.Count(q); got != want {
			t.Errorf("%s: reopened count %v, want %v", name, got, want)
		}
	}
}

func TestReadPoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	content := "# header comment\n1.5,2.5\n\n -3 , 4 \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	pts, err := readPoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("read %d points, want 2", len(pts))
	}
	if pts[0] != (psd.Point{X: 1.5, Y: 2.5}) || pts[1] != (psd.Point{X: -3, Y: 4}) {
		t.Errorf("points = %v", pts)
	}

	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("1,2,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPoints(bad); err == nil {
		t.Error("malformed row should error")
	}
	bad2 := filepath.Join(dir, "bad2.csv")
	if err := os.WriteFile(bad2, []byte("x,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPoints(bad2); err == nil {
		t.Error("non-numeric coordinate should error")
	}
	if _, err := readPoints(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
}
