// Package spatial implements AsterixDB's spatial types and functions
// (Table 1 of the paper): spatial-distance, spatial-area, spatial-intersect
// and spatial-cell over points, lines, rectangles, circles, and polygons.
package spatial

import (
	"fmt"
	"math"

	"asterixdb/internal/adm"
)

// Distance returns the Euclidean distance between two points.
func Distance(a, b adm.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// SpatialDistance is the AQL spatial-distance function: it accepts two point
// values and returns their distance as a double.
func SpatialDistance(a, b adm.Value) (adm.Double, error) {
	pa, ok1 := a.(adm.Point)
	pb, ok2 := b.(adm.Point)
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("spatial: spatial-distance expects two points, got %s and %s", a.Tag(), b.Tag())
	}
	return adm.Double(Distance(pa, pb)), nil
}

// Area returns the area of a spatial value. Points and lines have area 0.
func Area(v adm.Value) (float64, error) {
	switch x := v.(type) {
	case adm.Point, adm.Line:
		return 0, nil
	case adm.Rectangle:
		return math.Abs((x.UpperRight.X - x.LowerLeft.X) * (x.UpperRight.Y - x.LowerLeft.Y)), nil
	case adm.Circle:
		return math.Pi * x.Radius * x.Radius, nil
	case adm.Polygon:
		return polygonArea(x.Points), nil
	}
	return 0, fmt.Errorf("spatial: spatial-area over %s not supported", v.Tag())
}

// polygonArea computes the shoelace-formula area of a simple polygon.
func polygonArea(pts []adm.Point) float64 {
	if len(pts) < 3 {
		return 0
	}
	sum := 0.0
	for i := range pts {
		j := (i + 1) % len(pts)
		sum += pts[i].X*pts[j].Y - pts[j].X*pts[i].Y
	}
	return math.Abs(sum) / 2
}

// Cell returns the grid cell (as a rectangle) that contains point p, where the
// grid is anchored at origin and cells have the given x/y extents. This is the
// spatial-cell function used for grouped spatial aggregation.
func Cell(p adm.Point, origin adm.Point, xSize, ySize float64) (adm.Rectangle, error) {
	if xSize <= 0 || ySize <= 0 {
		return adm.Rectangle{}, fmt.Errorf("spatial: cell sizes must be positive")
	}
	ix := math.Floor((p.X - origin.X) / xSize)
	iy := math.Floor((p.Y - origin.Y) / ySize)
	ll := adm.Point{X: origin.X + ix*xSize, Y: origin.Y + iy*ySize}
	return adm.Rectangle{LowerLeft: ll, UpperRight: adm.Point{X: ll.X + xSize, Y: ll.Y + ySize}}, nil
}

// MBR returns the minimum bounding rectangle of any spatial value. Secondary
// R-tree indexes store MBRs as their keys.
func MBR(v adm.Value) (adm.Rectangle, error) {
	switch x := v.(type) {
	case adm.Point:
		return adm.Rectangle{LowerLeft: x, UpperRight: x}, nil
	case adm.Line:
		return rectFromPoints([]adm.Point{x.A, x.B}), nil
	case adm.Rectangle:
		return normalizeRect(x), nil
	case adm.Circle:
		return adm.Rectangle{
			LowerLeft:  adm.Point{X: x.Center.X - x.Radius, Y: x.Center.Y - x.Radius},
			UpperRight: adm.Point{X: x.Center.X + x.Radius, Y: x.Center.Y + x.Radius},
		}, nil
	case adm.Polygon:
		if len(x.Points) == 0 {
			return adm.Rectangle{}, fmt.Errorf("spatial: empty polygon has no MBR")
		}
		return rectFromPoints(x.Points), nil
	}
	return adm.Rectangle{}, fmt.Errorf("spatial: MBR over %s not supported", v.Tag())
}

func rectFromPoints(pts []adm.Point) adm.Rectangle {
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := pts[0].X, pts[0].Y
	for _, p := range pts[1:] {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	return adm.Rectangle{LowerLeft: adm.Point{X: minX, Y: minY}, UpperRight: adm.Point{X: maxX, Y: maxY}}
}

func normalizeRect(r adm.Rectangle) adm.Rectangle {
	return rectFromPoints([]adm.Point{r.LowerLeft, r.UpperRight})
}

// RectIntersects reports whether two rectangles share any point.
func RectIntersects(a, b adm.Rectangle) bool {
	a, b = normalizeRect(a), normalizeRect(b)
	return a.LowerLeft.X <= b.UpperRight.X && b.LowerLeft.X <= a.UpperRight.X &&
		a.LowerLeft.Y <= b.UpperRight.Y && b.LowerLeft.Y <= a.UpperRight.Y
}

// RectContainsPoint reports whether rectangle r contains point p (inclusive).
func RectContainsPoint(r adm.Rectangle, p adm.Point) bool {
	r = normalizeRect(r)
	return p.X >= r.LowerLeft.X && p.X <= r.UpperRight.X &&
		p.Y >= r.LowerLeft.Y && p.Y <= r.UpperRight.Y
}

// Intersect is the AQL spatial-intersect function. It supports every pairing
// of point, line, rectangle, circle and polygon by comparing exact geometry
// where easy (point/rect/circle) and falling back to MBR intersection for the
// line/polygon pairings, which is the filter step a spatial index performs.
func Intersect(a, b adm.Value) (bool, error) {
	// Normalize so the switch below only handles one ordering.
	rank := func(v adm.Value) int {
		switch v.Tag() {
		case adm.TagPoint:
			return 0
		case adm.TagCircle:
			return 1
		case adm.TagRectangle:
			return 2
		default:
			return 3
		}
	}
	if rank(a) > rank(b) {
		a, b = b, a
	}
	switch x := a.(type) {
	case adm.Point:
		switch y := b.(type) {
		case adm.Point:
			return x.X == y.X && x.Y == y.Y, nil
		case adm.Circle:
			return Distance(x, y.Center) <= y.Radius, nil
		case adm.Rectangle:
			return RectContainsPoint(y, x), nil
		case adm.Polygon:
			return pointInPolygon(x, y.Points), nil
		case adm.Line:
			mbr, _ := MBR(y)
			return RectContainsPoint(mbr, x), nil
		}
	case adm.Circle:
		switch y := b.(type) {
		case adm.Circle:
			return Distance(x.Center, y.Center) <= x.Radius+y.Radius, nil
		case adm.Rectangle:
			mbr, _ := MBR(x)
			return RectIntersects(mbr, y), nil
		}
	case adm.Rectangle:
		if y, ok := b.(adm.Rectangle); ok {
			return RectIntersects(x, y), nil
		}
	}
	// Fallback: MBR test.
	ma, err := MBR(a)
	if err != nil {
		return false, err
	}
	mb, err := MBR(b)
	if err != nil {
		return false, err
	}
	return RectIntersects(ma, mb), nil
}

// pointInPolygon uses the even-odd ray casting rule. A polygon with a NaN
// vertex contains no point, as an R-tree never offers its NaN MBR as a
// candidate: casting over the finite edges alone would toggle on some.
func pointInPolygon(p adm.Point, poly []adm.Point) bool {
	for _, v := range poly {
		if math.IsNaN(v.X) || math.IsNaN(v.Y) {
			return false
		}
	}
	inside := false
	n := len(poly)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		pi, pj := poly[i], poly[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) &&
			p.X < (pj.X-pi.X)*(p.Y-pi.Y)/(pj.Y-pi.Y)+pi.X {
			inside = !inside
		}
	}
	return inside
}
