package rtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/spatial"
)

func rect(x0, y0, x1, y1 float64) adm.Rectangle {
	return adm.Rectangle{LowerLeft: adm.Point{X: x0, Y: y0}, UpperRight: adm.Point{X: x1, Y: y1}}
}

// sortedKeys stands in for the LSM tree: a sorted key slice whose scan has
// lsm.Tree.Range's contract and counts the keys it hands out.
type sortedKeys struct {
	keys     [][]byte
	examined int
}

func newSortedKeys(rects []adm.Rectangle) *sortedKeys {
	s := &sortedKeys{}
	for i, r := range rects {
		s.keys = append(s.keys, EncodeEntryKey(r, binary.BigEndian.AppendUint32(nil, uint32(i))))
	}
	sort.Slice(s.keys, func(i, j int) bool { return bytes.Compare(s.keys[i], s.keys[j]) < 0 })
	return s
}

func (s *sortedKeys) scan(lo, hi []byte, visit func(key, value []byte) bool) {
	i := sort.Search(len(s.keys), func(i int) bool { return bytes.Compare(s.keys[i], lo) >= 0 })
	for ; i < len(s.keys) && (hi == nil || bytes.Compare(s.keys[i], hi) <= 0); i++ {
		s.examined++
		if !visit(s.keys[i], nil) {
			return
		}
	}
}

// search returns the sorted indexes of the rectangles Search reports.
func (s *sortedKeys) search(t testing.TB, probe adm.Rectangle) []int {
	t.Helper()
	var got []int
	err := Search(s.scan, probe, func(pk []byte) bool {
		got = append(got, int(binary.BigEndian.Uint32(pk)))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	return got
}

func bruteForce(rects []adm.Rectangle, probe adm.Rectangle) []int {
	var want []int
	for i, r := range rects {
		if spatial.RectIntersects(r, probe) {
			want = append(want, i)
		}
	}
	return want
}

func TestEntryKeyRoundTrip(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	for _, r := range []adm.Rectangle{
		rect(-1.5, 2.25, 3, 4e10),
		rect(7, 7, 7, 7),
		rect(negZero, 0, 0, negZero),
		rect(nan, 75, nan, 75),
		rect(math.Inf(-1), -1e-300, math.Inf(1), 1e300),
		rect(5, 5, 1, 1), // a negative-radius circle's MBR: corners swapped
	} {
		pk := []byte("pk-bytes")
		key := EncodeEntryKey(r, pk)
		gotR, gotPK, err := DecodeEntryKey(key)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if !bytes.Equal(EncodeEntryKey(gotR, gotPK), key) || !bytes.Equal(gotPK, pk) {
			t.Fatalf("%v: round trip = %v %q", r, gotR, gotPK)
		}
		if _, _, err := DecodeEntryKey(key[:10]); !errors.Is(err, ErrKeyLayout) {
			t.Fatalf("short key: err = %v", err)
		}
	}
	if image(negZero) != image(0) {
		t.Fatal("-0.0 and 0.0 have different images")
	}
	if level, _ := enclosingCell(rect(3, 4, 3, 4)); level != maxLevel {
		t.Fatalf("a point's level = %d, want the deepest", level)
	}
	if level, _ := enclosingCell(rect(-1, 1, 1, 2)); level != 0 {
		t.Fatalf("an extent across the origin has level %d, want 0", level)
	}
}

// TestOldLayoutKeyRefused: the layout before this one wrote the four float
// words first; such a key must fail to decode rather than yield a rectangle.
func TestOldLayoutKeyRefused(t *testing.T) {
	for _, r := range []adm.Rectangle{rect(47.5, 80.25, 47.5, 80.25), rect(-3, -4, 5, 6), rect(0.5, 0.5, 0.5, 0.5), rect(0, 0, 10, 10)} {
		var old []byte
		for _, f := range [4]float64{r.LowerLeft.X, r.LowerLeft.Y, r.UpperRight.X, r.UpperRight.Y} {
			old = binary.BigEndian.AppendUint64(old, math.Float64bits(f))
		}
		old = append(old, "a primary key of some length"...)
		if _, _, err := DecodeEntryKey(old); !errors.Is(err, ErrKeyLayout) {
			t.Errorf("old-layout key for %v: err = %v, want ErrKeyLayout", r, err)
		}
		s := &sortedKeys{keys: [][]byte{old}}
		if err := Search(s.scan, r, func([]byte) bool { return true }); !errors.Is(err, ErrKeyLayout) {
			t.Errorf("search over an old-layout key for %v: err = %v, want ErrKeyLayout", r, err)
		}
	}
}

// TestSearchCost pins the probe's cost where `go test` sees it: 20 000
// shapes, squares holding about 35 of them. On uniform points a probe
// examines 3.4 keys per hit. The mixed row centres the same domain on the
// origin and swaps one shape in twenty for a small extent, a fifth of which
// straddle a midline (an axis, x = ±32): shapes and probes near a midline
// key at a shallow level, so it examines 18.4 keys per hit. A cover that
// degraded to a strip or a full scan would examine hundreds per hit.
func TestSearchCost(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo     float64 // the points fill [lo, lo+100)²
		extent func(rng *rand.Rand, i int) (adm.Rectangle, bool)
		max    float64
	}{
		{"points", 0, func(*rand.Rand, int) (adm.Rectangle, bool) { return adm.Rectangle{}, false }, 10},
		{"points and straddling extents", -50, func(rng *rand.Rand, i int) (adm.Rectangle, bool) {
			if i%20 != 0 {
				return adm.Rectangle{}, false
			}
			w, h := rng.Float64()*2, rng.Float64()*2
			if i%100 != 0 {
				x, y := rng.Float64()*98-50, rng.Float64()*98-50
				return rect(x, y, x+w, y+h), true
			}
			// Centred on the y axis, on the x axis, or where x = ±32 meets it.
			cx := []float64{0, rng.Float64()*98 - 49, 32, -32}[rng.Intn(4)]
			cy := 0.0
			if cx == 0 {
				cy = rng.Float64()*98 - 49
			}
			return rect(cx-w/2, cy-h/2, cx+w/2, cy+h/2), true
		}, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			rects := make([]adm.Rectangle, 20000)
			for i := range rects {
				if r, ok := c.extent(rng, i); ok {
					rects[i] = r
					continue
				}
				x, y := c.lo+rng.Float64()*100, c.lo+rng.Float64()*100
				rects[i] = rect(x, y, x, y)
			}
			s := newSortedKeys(rects)
			const side = 4.18 // 100 * sqrt(35/20000)
			hits := 0
			for i := 0; i < 200; i++ {
				x, y := c.lo+rng.Float64()*(100-side), c.lo+rng.Float64()*(100-side)
				probe := rect(x, y, x+side, y+side)
				got := s.search(t, probe)
				if want := bruteForce(rects, probe); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("probe %v: got %v, want %v", probe, got, want)
				}
				hits += len(got)
			}
			perHit := float64(s.examined) / float64(hits)
			t.Logf("examined %.1f keys per hit", perHit)
			if perHit >= c.max {
				t.Fatalf("examined %.1f keys per hit (%d keys, %d hits), want < %v", perHit, s.examined, hits, c.max)
			}
		})
	}
}

func TestSearchStopsEarly(t *testing.T) {
	var rects []adm.Rectangle
	for i := 0; i < 100; i++ {
		rects = append(rects, rect(float64(i), float64(i), float64(i), float64(i)), rect(-1, -1, float64(i), float64(i)))
	}
	visited := 0
	err := Search(newSortedKeys(rects).scan, rect(-10, -10, 200, 200), func([]byte) bool {
		visited++
		return visited < 3
	})
	if err != nil || visited != 3 {
		t.Fatalf("visited %d entries, err %v; want 3, nil", visited, err)
	}
}

// fuzzCoords are the magnitudes FuzzSpatialProbe draws from: both signs, both
// zeros, neighbouring binades, denormals, huge values and the infinities.
var fuzzCoords = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, -2, 1.9999999999999998, 63.99, 64, 100, -100,
	5e-324, -5e-324, 1e-300, -1e-300, 1e-9, 1e300, -1e300, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// FuzzSpatialProbe: for a random set of rectangles and a random probe, the
// cover-and-filter search finds exactly what brute force finds; the cover's
// ranges are sorted, disjoint and within the stated bound at every level; and
// every key survives a decode/encode round trip byte for byte.
func FuzzSpatialProbe(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		coord := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return fuzzCoords[rng.Intn(len(fuzzCoords))]
			case 1: // a small neighbourhood, so that entries collide and nest
				return float64(rng.Intn(9) - 4)
			case 2:
				return (rng.Float64() - 0.5) * 200
			default: // any magnitude, either sign
				return math.Ldexp(rng.Float64()-0.5, rng.Intn(2100)-1050)
			}
		}
		randRect := func() adm.Rectangle {
			x, y := coord(), coord()
			switch rng.Intn(3) {
			case 0: // zero area
				return rect(x, y, x, y)
			case 1: // small extent
				return rect(x, y, x+rng.Float64()*3, y+rng.Float64()*3)
			default: // any two corners, in any order
				return rect(x, y, coord(), coord())
			}
		}
		rects := make([]adm.Rectangle, rng.Intn(200))
		for i := range rects {
			rects[i] = randRect()
		}
		s := newSortedKeys(rects)
		for _, key := range s.keys {
			r, pk, err := DecodeEntryKey(key)
			if err != nil {
				t.Fatalf("decode %x: %v", key, err)
			}
			if !bytes.Equal(EncodeEntryKey(r, pk), key) {
				t.Fatalf("key %x does not round-trip", key)
			}
		}
		for i := 0; i < 4; i++ {
			probe := randRect()
			if got, want := s.search(t, probe), bruteForce(rects, probe); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("probe %v over %v: got %v, want %v", probe, rects, got, want)
			}
			for level := 0; level <= maxLevel; level++ {
				ranges := cover(probe, level)
				if len(ranges) == 0 || len(ranges) > maxCoverCells {
					t.Fatalf("probe %v level %d: %d ranges, bound %d", probe, level, len(ranges), maxCoverCells)
				}
				for j, r := range ranges {
					if r.lo > r.hi || (j > 0 && ranges[j-1].hi >= r.lo) {
						t.Fatalf("probe %v level %d: ranges not sorted and disjoint: %v", probe, level, ranges)
					}
				}
			}
		}
	})
}
