package spatial

import (
	"math"
	"testing"
	"testing/quick"

	"asterixdb/internal/adm"
)

func TestDistance(t *testing.T) {
	if d := Distance(adm.Point{X: 0, Y: 0}, adm.Point{X: 3, Y: 4}); d != 5 {
		t.Errorf("Distance = %v", d)
	}
	got, err := SpatialDistance(adm.Point{X: 1, Y: 1}, adm.Point{X: 1, Y: 1})
	if err != nil || got != 0 {
		t.Errorf("SpatialDistance same point = %v, %v", got, err)
	}
	if _, err := SpatialDistance(adm.Point{}, adm.String("x")); err == nil {
		t.Error("SpatialDistance should reject non-points")
	}
}

func TestArea(t *testing.T) {
	cases := []struct {
		v    adm.Value
		want float64
	}{
		{adm.Point{X: 1, Y: 2}, 0},
		{adm.Line{A: adm.Point{X: 0, Y: 0}, B: adm.Point{X: 1, Y: 1}}, 0},
		{adm.Rectangle{LowerLeft: adm.Point{X: 0, Y: 0}, UpperRight: adm.Point{X: 2, Y: 3}}, 6},
		{adm.Circle{Center: adm.Point{X: 0, Y: 0}, Radius: 2}, 4 * math.Pi},
		{adm.Polygon{Points: []adm.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 3}, {X: 0, Y: 3}}}, 12},
		{adm.Polygon{Points: []adm.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 0, Y: 2}}}, 2},
	}
	for _, c := range cases {
		got, err := Area(c.v)
		if err != nil {
			t.Fatalf("Area(%v): %v", c.v, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Area(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if _, err := Area(adm.String("x")); err == nil {
		t.Error("Area should reject non-spatial values")
	}
}

func TestCell(t *testing.T) {
	cell, err := Cell(adm.Point{X: 5.5, Y: -2.5}, adm.Point{X: 0, Y: 0}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cell.LowerLeft != (adm.Point{X: 4, Y: -4}) || cell.UpperRight != (adm.Point{X: 6, Y: -2}) {
		t.Errorf("Cell = %+v", cell)
	}
	if !RectContainsPoint(cell, adm.Point{X: 5.5, Y: -2.5}) {
		t.Error("cell must contain its defining point")
	}
	if _, err := Cell(adm.Point{}, adm.Point{}, 0, 1); err == nil {
		t.Error("zero cell size should fail")
	}
}

func TestCellProperty(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.Abs(x) > 1e9 || math.Abs(y) > 1e9 {
			return true
		}
		cell, err := Cell(adm.Point{X: x, Y: y}, adm.Point{X: 0, Y: 0}, 3, 3)
		if err != nil {
			return false
		}
		return RectContainsPoint(cell, adm.Point{X: x, Y: y})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMBR(t *testing.T) {
	mbr, err := MBR(adm.Circle{Center: adm.Point{X: 1, Y: 1}, Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mbr.LowerLeft != (adm.Point{X: -1, Y: -1}) || mbr.UpperRight != (adm.Point{X: 3, Y: 3}) {
		t.Errorf("circle MBR = %+v", mbr)
	}
	mbr, err = MBR(adm.Polygon{Points: []adm.Point{{X: 0, Y: 5}, {X: 2, Y: 1}, {X: -1, Y: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if mbr.LowerLeft != (adm.Point{X: -1, Y: 1}) || mbr.UpperRight != (adm.Point{X: 2, Y: 5}) {
		t.Errorf("polygon MBR = %+v", mbr)
	}
	if _, err := MBR(adm.Polygon{}); err == nil {
		t.Error("empty polygon should have no MBR")
	}
	if _, err := MBR(adm.Int32(1)); err == nil {
		t.Error("MBR of non-spatial value should fail")
	}
}

func TestRectPredicates(t *testing.T) {
	a := adm.Rectangle{LowerLeft: adm.Point{X: 0, Y: 0}, UpperRight: adm.Point{X: 10, Y: 10}}
	b := adm.Rectangle{LowerLeft: adm.Point{X: 5, Y: 5}, UpperRight: adm.Point{X: 15, Y: 15}}
	c := adm.Rectangle{LowerLeft: adm.Point{X: 20, Y: 20}, UpperRight: adm.Point{X: 30, Y: 30}}
	if !RectIntersects(a, b) || RectIntersects(a, c) {
		t.Error("RectIntersects misreports")
	}
	// Reversed corners should be normalized.
	d := adm.Rectangle{LowerLeft: adm.Point{X: 10, Y: 10}, UpperRight: adm.Point{X: 0, Y: 0}}
	if !RectIntersects(d, b) {
		t.Error("RectIntersects should normalize reversed corners")
	}
	if !RectContainsPoint(a, adm.Point{X: 10, Y: 10}) || RectContainsPoint(a, adm.Point{X: 11, Y: 5}) {
		t.Error("RectContainsPoint misreports")
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b adm.Value
		want bool
	}{
		{adm.Point{X: 1, Y: 1}, adm.Point{X: 1, Y: 1}, true},
		{adm.Point{X: 1, Y: 1}, adm.Point{X: 1, Y: 2}, false},
		{adm.Point{X: 1, Y: 1}, adm.Circle{Center: adm.Point{X: 0, Y: 0}, Radius: 2}, true},
		{adm.Point{X: 5, Y: 5}, adm.Circle{Center: adm.Point{X: 0, Y: 0}, Radius: 2}, false},
		{adm.Circle{Center: adm.Point{X: 0, Y: 0}, Radius: 2}, adm.Point{X: 1, Y: 1}, true},
		{adm.Point{X: 1, Y: 1}, adm.Rectangle{LowerLeft: adm.Point{X: 0, Y: 0}, UpperRight: adm.Point{X: 2, Y: 2}}, true},
		{adm.Point{X: 0.5, Y: 0.5}, adm.Polygon{Points: []adm.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}}, true},
		{adm.Point{X: 5, Y: 5}, adm.Polygon{Points: []adm.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}}, false},
		// A NaN vertex: no point is inside, though ray casting over the
		// finite edges alone would say (1, 1) is.
		{adm.Polygon{Points: []adm.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 50, Y: 50}, {X: math.NaN(), Y: 50}}}, adm.Point{X: 1, Y: 1}, false},
		{
			adm.Circle{Center: adm.Point{X: 0, Y: 0}, Radius: 2},
			adm.Circle{Center: adm.Point{X: 3, Y: 0}, Radius: 2},
			true,
		},
		{
			adm.Rectangle{LowerLeft: adm.Point{X: 0, Y: 0}, UpperRight: adm.Point{X: 1, Y: 1}},
			adm.Rectangle{LowerLeft: adm.Point{X: 2, Y: 2}, UpperRight: adm.Point{X: 3, Y: 3}},
			false,
		},
		{
			adm.Line{A: adm.Point{X: 0, Y: 0}, B: adm.Point{X: 2, Y: 2}},
			adm.Rectangle{LowerLeft: adm.Point{X: 1, Y: 1}, UpperRight: adm.Point{X: 3, Y: 3}},
			true,
		},
	}
	for _, c := range cases {
		got, err := Intersect(c.a, c.b)
		if err != nil {
			t.Fatalf("Intersect(%v, %v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Intersect(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectSymmetryProperty(t *testing.T) {
	f := func(x1, y1, r1, x2, y2, r2 float64) bool {
		if anyBad(x1, y1, r1, x2, y2, r2) {
			return true
		}
		a := adm.Circle{Center: adm.Point{X: x1, Y: y1}, Radius: math.Abs(r1)}
		b := adm.Circle{Center: adm.Point{X: x2, Y: y2}, Radius: math.Abs(r2)}
		g1, err1 := Intersect(a, b)
		g2, err2 := Intersect(b, a)
		return err1 == nil && err2 == nil && g1 == g2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return true
		}
	}
	return false
}
