package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"psd/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("order 0 should error")
	}
	if _, err := New(MaxOrder + 1); err == nil {
		t.Error("order above MaxOrder should error")
	}
	c, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Side() != 8 || c.NumCells() != 64 || c.Order() != 3 {
		t.Errorf("order-3 curve: side=%d cells=%d", c.Side(), c.NumCells())
	}
}

// The order-1 curve visits (0,0),(0,1),(1,1),(1,0) — the canonical U shape.
func TestOrder1Canonical(t *testing.T) {
	c, _ := New(1)
	want := [][2]uint32{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for d, cell := range want {
		x, y, err := c.Decode(uint64(d))
		if err != nil {
			t.Fatal(err)
		}
		if x != cell[0] || y != cell[1] {
			t.Errorf("Decode(%d) = (%d,%d), want (%d,%d)", d, x, y, cell[0], cell[1])
		}
		back, err := c.Encode(cell[0], cell[1])
		if err != nil {
			t.Fatal(err)
		}
		if back != uint64(d) {
			t.Errorf("Encode%v = %d, want %d", cell, back, d)
		}
	}
}

func TestEncodeDecodeRoundTripExhaustive(t *testing.T) {
	for order := uint(1); order <= 5; order++ {
		c, _ := New(order)
		seen := make(map[uint64]bool)
		for x := uint32(0); x < c.Side(); x++ {
			for y := uint32(0); y < c.Side(); y++ {
				d, err := c.Encode(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if d >= c.NumCells() {
					t.Fatalf("order %d: index %d out of range", order, d)
				}
				if seen[d] {
					t.Fatalf("order %d: duplicate index %d", order, d)
				}
				seen[d] = true
				rx, ry, err := c.Decode(d)
				if err != nil {
					t.Fatal(err)
				}
				if rx != x || ry != y {
					t.Fatalf("order %d: roundtrip (%d,%d) -> %d -> (%d,%d)",
						order, x, y, d, rx, ry)
				}
			}
		}
		if uint64(len(seen)) != c.NumCells() {
			t.Fatalf("order %d: curve is not a bijection", order)
		}
	}
}

// Property-based roundtrip at a large order.
func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	c, _ := New(18)
	f := func(x, y uint32) bool {
		x %= c.Side()
		y %= c.Side()
		d, err := c.Encode(x, y)
		if err != nil {
			return false
		}
		rx, ry, err := c.Decode(d)
		return err == nil && rx == x && ry == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Consecutive Hilbert values are adjacent grid cells (Manhattan distance 1):
// the locality property that makes the curve useful for R-trees.
func TestLocality(t *testing.T) {
	c, _ := New(6)
	px, py, err := c.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	for d := uint64(1); d < c.NumCells(); d++ {
		x, y, err := c.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		dist := absDiff(x, px) + absDiff(y, py)
		if dist != 1 {
			t.Fatalf("indices %d and %d map to cells at distance %d", d-1, d, dist)
		}
		px, py = x, y
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestEncodeDecodeErrors(t *testing.T) {
	c, _ := New(2)
	if _, err := c.Encode(4, 0); err == nil {
		t.Error("out-of-grid Encode should error")
	}
	if _, _, err := c.Decode(16); err == nil {
		t.Error("out-of-range Decode should error")
	}
}

func TestAlignedBlocks(t *testing.T) {
	// [0,15] is a single level-2 block.
	bs := alignedBlocks(0, 15)
	if len(bs) != 1 || bs[0].level != 2 || bs[0].start != 0 {
		t.Errorf("alignedBlocks(0,15) = %+v", bs)
	}
	// [1,14] fragments into smaller blocks that exactly tile the range.
	bs = alignedBlocks(1, 14)
	covered := make(map[uint64]bool)
	for _, b := range bs {
		size := uint64(1) << (2 * b.level)
		if b.start%size != 0 {
			t.Errorf("block %+v not aligned", b)
		}
		for i := uint64(0); i < size; i++ {
			if covered[b.start+i] {
				t.Errorf("index %d covered twice", b.start+i)
			}
			covered[b.start+i] = true
		}
	}
	for i := uint64(1); i <= 14; i++ {
		if !covered[i] {
			t.Errorf("index %d not covered", i)
		}
	}
	if len(covered) != 14 {
		t.Errorf("covered %d indices, want 14", len(covered))
	}
}

// The widest range the largest curve allows is one top-level block.
func TestCellBoundsFullRangeOfLargestCurve(t *testing.T) {
	c, _ := New(MaxOrder)
	minX, minY, maxX, maxY, err := c.CellBounds(0, c.NumCells()-1)
	if err != nil || minX != 0 || minY != 0 || maxX != c.Side()-1 || maxY != c.Side()-1 {
		t.Errorf("order-%d full range: (%d,%d)-(%d,%d), err %v", MaxOrder, minX, minY, maxX, maxY, err)
	}
}

// CellBounds must equal the brute-force bbox of decoded cells.
func TestCellBoundsMatchesBruteForce(t *testing.T) {
	c, _ := New(4) // 256 cells — exhaustive check is cheap
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		a := uint64(rng.Intn(256))
		b := uint64(rng.Intn(256))
		if a > b {
			a, b = b, a
		}
		minX, minY, maxX, maxY, err := c.CellBounds(a, b)
		if err != nil {
			t.Fatal(err)
		}
		wMinX, wMinY := uint32(255), uint32(255)
		var wMaxX, wMaxY uint32
		for d := a; d <= b; d++ {
			x, y, _ := c.Decode(d)
			if x < wMinX {
				wMinX = x
			}
			if y < wMinY {
				wMinY = y
			}
			if x > wMaxX {
				wMaxX = x
			}
			if y > wMaxY {
				wMaxY = y
			}
		}
		if minX != wMinX || minY != wMinY || maxX != wMaxX || maxY != wMaxY {
			t.Fatalf("CellBounds(%d,%d) = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				a, b, minX, minY, maxX, maxY, wMinX, wMinY, wMaxX, wMaxY)
		}
	}
}

func TestCellBoundsClampsAndValidates(t *testing.T) {
	c, _ := New(2)
	if _, _, _, _, err := c.CellBounds(5, 3); err == nil {
		t.Error("inverted range should error")
	}
	// hi beyond the curve is clamped to the last cell.
	minX, minY, maxX, maxY, err := c.CellBounds(0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if minX != 0 || minY != 0 || maxX != 3 || maxY != 3 {
		t.Errorf("full-range bounds = (%d,%d,%d,%d), want full grid", minX, minY, maxX, maxY)
	}
}

func TestMapper(t *testing.T) {
	dom := geom.NewRect(-10, 0, 10, 40)
	m, err := NewMapper(3, dom)
	if err != nil {
		t.Fatal(err)
	}
	if m.Domain() != dom {
		t.Error("Domain not preserved")
	}
	// The lower-left corner maps to cell (0,0); upper-right clamps to (7,7).
	if x, y := m.Cell(geom.Point{X: -10, Y: 0}); x != 0 || y != 0 {
		t.Errorf("lower corner cell = (%d,%d)", x, y)
	}
	if x, y := m.Cell(geom.Point{X: 10, Y: 40}); x != 7 || y != 7 {
		t.Errorf("upper corner cell = (%d,%d)", x, y)
	}
	// Out-of-domain points clamp, never panic.
	if x, y := m.Cell(geom.Point{X: -999, Y: 999}); x != 0 || y != 7 {
		t.Errorf("clamped cell = (%d,%d)", x, y)
	}
	// Cell rectangles tile the domain.
	var area float64
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			area += m.CellRect(x, y).Area()
		}
	}
	if diff := area - dom.Area(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cell areas sum to %v, want %v", area, dom.Area())
	}
}

func TestMapperIndexConsistentWithCell(t *testing.T) {
	dom := geom.NewRect(0, 0, 1, 1)
	m, _ := NewMapper(8, dom)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		d := m.Index(p)
		x, y, err := m.Curve().Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		if !m.CellRect(x, y).ContainsClosed(p) {
			t.Fatalf("point %v not inside its Hilbert cell %v", p, m.CellRect(x, y))
		}
	}
}

func TestRangeBoundsContainsRangePoints(t *testing.T) {
	dom := geom.NewRect(0, 0, 16, 16)
	m, _ := NewMapper(4, dom)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a := uint64(rng.Intn(256))
		b := uint64(rng.Intn(256))
		if a > b {
			a, b = b, a
		}
		bbox, err := m.RangeBounds(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for d := a; d <= b; d++ {
			x, y, _ := m.Curve().Decode(d)
			if !bbox.ContainsRect(m.CellRect(x, y)) {
				t.Fatalf("range [%d,%d]: bbox %v misses cell (%d,%d)", a, b, bbox, x, y)
			}
		}
	}
}

func TestNewMapperEmptyDomain(t *testing.T) {
	if _, err := NewMapper(3, geom.Rect{}); err == nil {
		t.Error("empty domain should error")
	}
}

func BenchmarkEncodeOrder18(b *testing.B) {
	c, _ := New(18)
	for i := 0; i < b.N; i++ {
		_, _ = c.Encode(uint32(i)%c.Side(), uint32(i*7919)%c.Side())
	}
}

func BenchmarkCellBoundsOrder18(b *testing.B) {
	c, _ := New(18)
	n := c.NumCells()
	for i := 0; i < b.N; i++ {
		lo := uint64(i*7919) % (n / 2)
		_, _, _, _, _ = c.CellBounds(lo, lo+n/3)
	}
}
