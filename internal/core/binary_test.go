package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"psd/internal/geom"
)

// v2Fixture reads a committed format-v2 golden artifact. Nothing writes v2
// any more, so the decoder is exercised on the artifacts an older release
// of this module wrote: testdata/release_<kind>.bin, built at height 3
// (85 nodes), except the adaptive privtree fixture (height 5, 1365 nodes,
// unpublished interior and a non-empty pruned trailer).
func v2Fixture(tb testing.TB, kind string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "release_"+kind+".bin"))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// v2FixtureKinds names every committed v2 fixture.
var v2FixtureKinds = []string{"quadtree", "kd", "kd-hybrid", "hilbert-r", "kd-cell", "kd-noisymean", "privtree"}

// TestBinaryRoundTrip pins the v2 decoder against every committed v2
// fixture: the decoded slab converts to the committed JSON and v3 fixtures
// byte-identically, so v2 artifacts on disk migrate losslessly.
// (TestCrossFormatEquivalence pins that it also answers identically.)
func TestBinaryRoundTrip(t *testing.T) {
	for _, kind := range v2FixtureKinds {
		slab, err := ReadBinary(bytes.NewReader(v2Fixture(t, kind)))
		if err != nil {
			t.Fatalf("%s: ReadBinary: %v", kind, err)
		}
		dir := filepath.Join("..", "..", "testdata", "release_"+kind)
		wantJSON, err := os.ReadFile(dir + ".json")
		if err != nil {
			t.Fatal(err)
		}
		wantV3, err := os.ReadFile(dir + ".v3.bin")
		if err != nil {
			t.Fatal(err)
		}
		var gotJSON, gotV3 bytes.Buffer
		if _, err := slab.Release().WriteTo(&gotJSON); err != nil {
			t.Fatal(err)
		}
		if _, err := slab.WriteBinaryV3(&gotV3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON.Bytes(), wantJSON) {
			t.Errorf("%s: v2 -> JSON differs from the JSON fixture", kind)
		}
		if !bytes.Equal(gotV3.Bytes(), wantV3) {
			t.Errorf("%s: v2 -> v3 differs from the v3 fixture", kind)
		}
	}
}

// TestBinarySmallerThanJSON sanity-checks the size motivation: the binary
// encoding beats the JSON text encoding on a post-processed release.
func TestBinarySmallerThanJSON(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(2048, dom, 71)
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 5, Epsilon: 1, Seed: 72, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if _, err := p.Release().WriteTo(&js); err != nil {
		t.Fatal(err)
	}
	bin := v3Bytes(t, p)
	if len(bin) >= js.Len() {
		t.Errorf("binary release is %d bytes, JSON %d — expected smaller", len(bin), js.Len())
	}
}

// corrupt returns a copy of raw with one byte range overwritten.
func corrupt(raw []byte, off int, b ...byte) []byte {
	out := append([]byte(nil), raw...)
	copy(out[off:], b)
	return out
}

// putF64 little-endian encodes v at off.
func putF64(raw []byte, off int, v float64) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
	return out
}

// TestReadBinaryRejectsMalformed walks the hardening checklist: every
// corruption class Release.Validate rejects on the JSON path must be
// rejected by the v2 decoder too, without panicking.
func TestReadBinaryRejectsMalformed(t *testing.T) {
	raw := v2Fixture(t, "kd-hybrid")
	nodes := 85 // (4^4-1)/3 for height 3

	cases := map[string][]byte{
		"empty":               {},
		"truncated header":    raw[:40],
		"bad magic":           corrupt(raw, 0, 'J', 'S', 'O', 'N'),
		"bad version":         corrupt(raw, 4, 9),
		"bad kind":            corrupt(raw, 5, 200),
		"bad fanout":          corrupt(raw, 6, 3),
		"huge height":         corrupt(raw, 7, 99),
		"negative epsilon":    putF64(raw, 8, -1),
		"NaN epsilon":         putF64(raw, 8, math.NaN()),
		"NaN domain":          putF64(raw, 16, math.NaN()),
		"inverted domain":     putF64(raw, 16, 1e9),
		"node count mismatch": corrupt(raw, 48, 1, 0, 0, 0),
		"pruned overflow":     corrupt(raw, 52, 0xff, 0xff, 0xff, 0x7f),
		"truncated columns":   raw[:len(raw)/2],
		"NaN rect":            putF64(raw, binaryHeaderSize, math.NaN()),
		// lox of node 0 (the root/domain rect) pushed past its hix.
		"inverted rect": putF64(raw, binaryHeaderSize, 1e12),
		// First count made non-finite (the post-processed fixture
		// publishes the root).
		"infinite count": putF64(raw, binaryHeaderSize+4*8*nodes, math.Inf(1)),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadBinary accepted malformed input", name)
		}
	}

	// Published bits beyond the node count break canonical encoding.
	bitsetOff := binaryHeaderSize + 5*8*nodes
	tail := corrupt(raw, bitsetOff+8*(nodes/64), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	if _, err := ReadBinary(bytes.NewReader(tail)); err == nil {
		t.Error("ReadBinary accepted published bits beyond the last node")
	}

	// A truncated pruned trailer must error rather than hang or succeed
	// (the adaptive fixture's trailer is non-empty).
	pruned := v2Fixture(t, "privtree")
	if _, err := ReadBinary(bytes.NewReader(pruned[:len(pruned)-1])); err == nil {
		t.Error("ReadBinary accepted a truncated pruned trailer")
	}
}

// TestReadBinaryZeroesUnpublishedCounts pins that garbage in an unpublished
// count slot cannot leak into LeafRegions: the decoder forces those slots
// to zero, matching the JSON path's nil counts.
func TestReadBinaryZeroesUnpublishedCounts(t *testing.T) {
	// PrivTree publishes only its adaptive leaves, so the fixture's root is
	// unpublished; poison its count slot.
	raw := v2Fixture(t, "privtree")
	const nodes = 1365 // (4^6-1)/3 for height 5
	poisoned := putF64(raw, binaryHeaderSize+4*8*nodes, 12345.0)
	clean, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	slab, err := ReadBinary(bytes.NewReader(poisoned))
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if _, err := clean.WriteBinaryV3(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := slab.WriteBinaryV3(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("decoder did not canonicalize a poisoned unpublished count slot")
	}
	for _, q := range slabTestQueries(clean.Domain()) {
		if got, want := slab.Query(q), clean.Query(q); got != want {
			t.Errorf("poisoned slab Query(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestReadBinaryHostileHeaders pins the allocation-gating property the
// decoder claims: a 56-byte header making absurd size claims — height past
// the cap, a node count that cannot match any tree, a pruned count past the
// node count — must be rejected before any node-sized allocation happens.
// A hostile artifact is bytes on disk; it must not cost memory proportional
// to what it *claims* to be.
func TestReadBinaryHostileHeaders(t *testing.T) {
	// A minimal structurally-plausible header for a height-0 tree (1 node),
	// mutated per case. Each hostile header is complete (56 bytes) but has
	// no body at all, so acceptance of the header would hit EOF next.
	base := make([]byte, binaryHeaderSize)
	copy(base, binaryMagic[:])
	base[4] = binaryVersion
	base[5] = 0 // quadtree
	base[6] = 4
	base[7] = 0                                                      // height 0 -> 1 node
	binary.LittleEndian.PutUint64(base[8:], math.Float64bits(1.0))   // epsilon
	binary.LittleEndian.PutUint64(base[16:], math.Float64bits(0))    // lox
	binary.LittleEndian.PutUint64(base[24:], math.Float64bits(0))    // loy
	binary.LittleEndian.PutUint64(base[32:], math.Float64bits(64.0)) // hix
	binary.LittleEndian.PutUint64(base[40:], math.Float64bits(64.0)) // hiy
	binary.LittleEndian.PutUint32(base[48:], 1)                      // nodes
	binary.LittleEndian.PutUint32(base[52:], 0)                      // pruned

	hostile := map[string][]byte{
		// Height 13 declares ~89M nodes, past the MaxNodes arena cap.
		"height over arena cap": corrupt(base, 7, 13),
		// Max height byte: 4^256 nodes if anyone tried to compute it.
		"height 255": corrupt(base, 7, 255),
		// Node count u32 maxed out against a height-0 shape.
		"node count over-claim": corrupt(base, 48, 0xff, 0xff, 0xff, 0xff),
		// Pruned count exceeds the (valid) node count.
		"pruned over-claim": corrupt(base, 52, 0xff, 0xff, 0xff, 0xff),
	}
	for name, hdr := range hostile {
		hdr := hdr
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(hdr)); err == nil {
				t.Fatal("ReadBinary accepted a hostile header")
			}
			// Rejection must be allocation-free (modulo the error value):
			// the header checks run before newSlab.
			allocs := testing.AllocsPerRun(10, func() {
				ReadBinary(bytes.NewReader(hdr))
			})
			if allocs > 8 {
				t.Errorf("rejecting a hostile header cost %.0f allocs — node-sized work before validation?", allocs)
			}
		})
	}
}

// TestReadBinaryTruncatedSections cuts a valid artifact at (and one byte
// into) every section boundary — header, each of the five columns, the
// published bitset, the pruned trailer. Every cut must produce a decode
// error, never a panic or a short successful read.
func TestReadBinaryTruncatedSections(t *testing.T) {
	raw := v2Fixture(t, "privtree")
	const nodes = 1365 // (4^6-1)/3 for height 5
	colBytes := 8 * nodes
	bitsetOff := binaryHeaderSize + 5*colBytes
	trailerOff := bitsetOff + 8*((nodes+63)/64)
	if trailerOff >= len(raw) {
		t.Fatalf("fixture has no pruned trailer (len %d, trailer at %d)", len(raw), trailerOff)
	}

	cuts := []int{0, 1, binaryHeaderSize - 1, binaryHeaderSize}
	for col := 1; col <= 5; col++ {
		off := binaryHeaderSize + col*colBytes
		cuts = append(cuts, off-1, off)
	}
	cuts = append(cuts, bitsetOff+1, trailerOff, len(raw)-1)
	for _, cut := range cuts {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("ReadBinary accepted an artifact truncated to %d of %d bytes", cut, len(raw))
		}
	}
	if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
		t.Fatalf("untruncated fixture must decode: %v", err)
	}
}
