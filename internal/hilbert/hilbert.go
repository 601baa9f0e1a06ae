// Package hilbert implements the two-dimensional Hilbert space-filling curve
// used by the private Hilbert R-tree (Sections 3.2 and 3.3 of the paper,
// following Kamel and Faloutsos [13]).
//
// A curve of order k visits every cell of a 2^k × 2^k grid exactly once.
// Encode maps a grid cell to its position along the curve ("Hilbert value"),
// Decode inverts it, and RangeBounds computes the exact bounding box of all
// cells whose Hilbert value falls in a given index range — the operation the
// private R-tree uses to derive node rectangles without touching the data.
//
// RangeBounds exploits a structural property of the curve: every aligned
// index block [m·4^j, (m+1)·4^j) occupies exactly one aligned 2^j × 2^j
// subsquare. An arbitrary range therefore decomposes into O(log N) aligned
// blocks whose squares are unioned, giving an exact bbox in O(order²) time.
package hilbert

import (
	"fmt"

	"psd/internal/geom"
)

// MaxOrder is the largest supported curve order; 4^31 indices fit in uint64
// with room to spare.
const MaxOrder = 31

// Curve is a Hilbert curve of a fixed order.
type Curve struct {
	order uint
	side  uint32 // 2^order
}

// New returns a curve of the given order (1 ≤ order ≤ MaxOrder).
func New(order uint) (*Curve, error) {
	if order < 1 || order > MaxOrder {
		return nil, fmt.Errorf("hilbert: order %d out of range [1,%d]", order, MaxOrder)
	}
	return &Curve{order: order, side: 1 << order}, nil
}

// Order returns the curve order.
func (c *Curve) Order() uint { return c.order }

// Side returns the grid side length 2^order.
func (c *Curve) Side() uint32 { return c.side }

// NumCells returns the total number of grid cells, 4^order.
func (c *Curve) NumCells() uint64 { return uint64(c.side) * uint64(c.side) }

// Encode returns the Hilbert value of grid cell (x, y). Coordinates outside
// the grid are an error.
func (c *Curve) Encode(x, y uint32) (uint64, error) {
	if x >= c.side || y >= c.side {
		return 0, fmt.Errorf("hilbert: cell (%d,%d) outside %dx%d grid", x, y, c.side, c.side)
	}
	var d uint64
	for s := c.side / 2; s > 0; s /= 2 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = rotate(s, x, y, rx, ry)
	}
	return d, nil
}

// Decode returns the grid cell at Hilbert value d.
func (c *Curve) Decode(d uint64) (x, y uint32, err error) {
	if d >= c.NumCells() {
		return 0, 0, fmt.Errorf("hilbert: index %d outside curve of %d cells", d, c.NumCells())
	}
	t := d
	for s := uint32(1); s < c.side; s *= 2 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = rotate(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y, nil
}

// rotate applies the quadrant rotation/reflection of the Hilbert recursion.
func rotate(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// CellBounds returns the integer bounds {minX, minY, maxX, maxY} (inclusive)
// of all grid cells with Hilbert value in [lo, hi]. lo and hi are clamped to
// the curve; it is an error if lo > hi.
func (c *Curve) CellBounds(lo, hi uint64) (minX, minY, maxX, maxY uint32, err error) {
	if lo > hi {
		return 0, 0, 0, 0, fmt.Errorf("hilbert: inverted range [%d,%d]", lo, hi)
	}
	if max := c.NumCells() - 1; hi > max {
		hi = max
	}
	first := true
	for _, b := range alignedBlocks(lo, hi) {
		// An aligned block of 4^j cells starting at b.start occupies the
		// aligned 2^j square containing its first cell.
		x, y, derr := c.Decode(b.start)
		if derr != nil {
			return 0, 0, 0, 0, derr
		}
		mask := (uint32(1) << b.level) - 1
		bx, by := x&^mask, y&^mask
		tx, ty := bx+mask, by+mask
		if first {
			minX, minY, maxX, maxY = bx, by, tx, ty
			first = false
			continue
		}
		if bx < minX {
			minX = bx
		}
		if by < minY {
			minY = by
		}
		if tx > maxX {
			maxX = tx
		}
		if ty > maxY {
			maxY = ty
		}
	}
	return minX, minY, maxX, maxY, nil
}

type block struct {
	start uint64
	level uint // block covers 4^level indices
}

// alignedBlocks decomposes the inclusive index range [lo, hi] into maximal
// 4^j-aligned blocks, segment-tree style. The result has O(2·log4(hi-lo))
// entries.
func alignedBlocks(lo, hi uint64) []block {
	var out []block
	pos := lo
	for pos <= hi {
		level := uint(0)
		// Grow the block while it stays aligned and inside the range. No
		// range holds a block above MaxOrder, whose size would not fit in
		// uint64.
		for level < MaxOrder {
			next := level + 1
			size := uint64(1) << (2 * next)
			if pos%size != 0 {
				break
			}
			if pos+size-1 > hi || pos+size-1 < pos { // overflow guard
				break
			}
			level = next
		}
		out = append(out, block{start: pos, level: level})
		step := uint64(1) << (2 * level)
		if pos+step < pos { // overflow: covered the top of the index space
			break
		}
		pos += step
	}
	return out
}

// Mapper translates between continuous points in a rectangular domain and
// Hilbert values on a curve of the given order. It is how the Hilbert R-tree
// moves between the original space and the one-dimensional Hilbert space.
type Mapper struct {
	curve  *Curve
	domain geom.Rect
	cellW  float64
	cellH  float64
}

// NewMapper returns a mapper for the given domain. The domain must have
// positive area.
func NewMapper(order uint, domain geom.Rect) (*Mapper, error) {
	if domain.Empty() {
		return nil, fmt.Errorf("hilbert: empty domain %v", domain)
	}
	c, err := New(order)
	if err != nil {
		return nil, err
	}
	side := float64(c.Side())
	return &Mapper{
		curve:  c,
		domain: domain,
		cellW:  domain.Width() / side,
		cellH:  domain.Height() / side,
	}, nil
}

// Curve returns the underlying curve.
func (m *Mapper) Curve() *Curve { return m.curve }

// Domain returns the mapped domain rectangle.
func (m *Mapper) Domain() geom.Rect { return m.domain }

// Cell returns the grid cell containing p, clamping points on the domain's
// closed upper boundary into the last cell.
func (m *Mapper) Cell(p geom.Point) (x, y uint32) {
	fx := (p.X - m.domain.Lo.X) / m.cellW
	fy := (p.Y - m.domain.Lo.Y) / m.cellH
	x = clampCell(fx, m.curve.side)
	y = clampCell(fy, m.curve.side)
	return x, y
}

func clampCell(f float64, side uint32) uint32 {
	if f < 0 {
		return 0
	}
	if f >= float64(side) {
		return side - 1
	}
	return uint32(f)
}

// Index returns the Hilbert value of the cell containing p.
func (m *Mapper) Index(p geom.Point) uint64 {
	x, y := m.Cell(p)
	d, err := m.curve.Encode(x, y)
	if err != nil {
		// Cell clamps into the grid, so Encode cannot fail.
		panic(err)
	}
	return d
}

// CellRect returns the continuous rectangle of grid cell (x, y).
func (m *Mapper) CellRect(x, y uint32) geom.Rect {
	return geom.Rect{
		Lo: geom.Point{
			X: m.domain.Lo.X + float64(x)*m.cellW,
			Y: m.domain.Lo.Y + float64(y)*m.cellH,
		},
		Hi: geom.Point{
			X: m.domain.Lo.X + float64(x+1)*m.cellW,
			Y: m.domain.Lo.Y + float64(y+1)*m.cellH,
		},
	}
}

// RangeBounds returns the exact bounding rectangle (in continuous
// coordinates) of all cells whose Hilbert value lies in [lo, hi]. This is
// data-independent: it depends only on the curve and the range, so releasing
// it costs no privacy budget.
func (m *Mapper) RangeBounds(lo, hi uint64) (geom.Rect, error) {
	minX, minY, maxX, maxY, err := m.curve.CellBounds(lo, hi)
	if err != nil {
		return geom.Rect{}, err
	}
	lower := m.CellRect(minX, minY)
	upper := m.CellRect(maxX, maxY)
	return lower.Union(upper), nil
}
