// The R-tree secondary index's LSM key layout and intersection probe. The
// storage layer owns the lsm.Tree (one per index partition, with the same
// flush/antimatter/merge/recovery lifecycle as every other index); its keys
// are
//
//	level ‖ Morton code ‖ rectangle ‖ primary key
//
// with nil values: one entry per record. (level, Morton code) names the
// smallest quad cell enclosing the entry's MBR, in a quadtree laid over an
// order-preserving integer image of the coordinates' float bits — so no data
// domain is configured, and negative, tiny and huge coordinates all have a
// cell. A point lands at the deepest level; an extent that straddles a cell's
// midline lands in the shallower cell that holds both sides.
//
// Why Z-order: within one level, the entries of a cell and all its sub-cells
// are one contiguous key range, so "every entry near this rectangle" is a
// handful of range scans over the one tree — the only read an LSM tree
// offers — instead of a second, heap-resident structure that has to be kept
// equal to the tree. It is also the leaf order of a bulk-loaded disk R-tree:
// consecutive keys are spatial neighbours, so an MBR per run of keys is a
// packed R-tree leaf.

package rtree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"asterixdb/internal/adm"
	"asterixdb/internal/spatial"
)

const (
	// maxLevel is the quadtree's depth: a cell is named by the top level bits
	// of each coordinate's image, and 32 bits (sign, exponent, 20 mantissa
	// bits) keep the Morton code in one word. Entries closer than that share
	// a deepest cell and are told apart by the exact filter.
	maxLevel = 32
	cellLen  = 1 + 8 // level byte, Morton code
	rectLen  = 4 * 8
	// maxCoverCells bounds the cells (and so the range scans per populated
	// level) a probe is covered with: at most five along each axis.
	maxCoverCells = 25
)

// ErrKeyLayout reports an entry key whose cell prefix is not the cell of the
// rectangle it carries: a corrupt key, or one written by the layout that
// preceded this one (four raw float words, no cell prefix).
var ErrKeyLayout = errors.New("rtree: entry key's cell prefix does not match its rectangle")

// image maps a coordinate to an integer whose unsigned order is the float
// order: the top half of the float's bits with the sign bit flipped
// (positives) or every bit flipped (negatives). -0.0 and 0.0 compare equal,
// so they share one image.
func image(f float64) uint32 {
	b := math.Float64bits(f)
	switch {
	case f == 0:
		b = 1 << 63
	case b>>63 != 0:
		b = ^b
	default:
		b |= 1 << 63
	}
	return uint32(b >> 32)
}

// spread moves bit i of v to bit 2i.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// lowBits masks the Morton bits below a level-deep cell: the cell's own code
// has them clear, and its sub-cells' codes run up to code|lowBits(level).
func lowBits(level int) uint64 { return 1<<(64-2*level) - 1 }

// cellCode is the Morton code of the level-deep cell holding the image point
// (x, y): the top level bits of x and of y, interleaved.
func cellCode(level int, x, y uint32) uint64 {
	return (spread(x)<<1 | spread(y)) &^ lowBits(level)
}

// enclosingCell returns the smallest cell holding all four corners of r.
func enclosingCell(r adm.Rectangle) (level int, code uint64) {
	x0, y0 := image(r.LowerLeft.X), image(r.LowerLeft.Y)
	x1, y1 := image(r.UpperRight.X), image(r.UpperRight.Y)
	level = min(bits.LeadingZeros32(x0^x1), bits.LeadingZeros32(y0^y1))
	return level, cellCode(level, x0, y0)
}

// cellKey is the key prefix of a cell; every entry filed under the cell sorts
// after it and before the prefix of the next code.
func cellKey(level int, code uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{byte(level)}, code)
}

// EncodeEntryKey builds the LSM key for one R-tree entry: the enclosing cell
// of the MBR, the MBR's four coordinates as big-endian float bits, then the
// primary key. The encoding is canonical (one rect+pk pair has exactly one
// key), which is what lets WAL replay re-apply entries idempotently.
func EncodeEntryKey(r adm.Rectangle, pk []byte) []byte {
	level, code := enclosingCell(r)
	key := append(make([]byte, 0, cellLen+rectLen+len(pk)), byte(level))
	for _, word := range [5]uint64{
		code,
		math.Float64bits(r.LowerLeft.X), math.Float64bits(r.LowerLeft.Y),
		math.Float64bits(r.UpperRight.X), math.Float64bits(r.UpperRight.Y),
	} {
		key = binary.BigEndian.AppendUint64(key, word)
	}
	return append(key, pk...)
}

// DecodeEntryKey splits an LSM entry key back into rectangle and primary key
// (a view into key). A key whose cell prefix is not its rectangle's cell is
// refused with ErrKeyLayout.
func DecodeEntryKey(key []byte) (adm.Rectangle, []byte, error) {
	if len(key) < cellLen+rectLen {
		return adm.Rectangle{}, nil, fmt.Errorf("%w: %d bytes", ErrKeyLayout, len(key))
	}
	coord := func(i int) float64 {
		return math.Float64frombits(binary.BigEndian.Uint64(key[cellLen+8*i:]))
	}
	r := adm.Rectangle{
		LowerLeft:  adm.Point{X: coord(0), Y: coord(1)},
		UpperRight: adm.Point{X: coord(2), Y: coord(3)},
	}
	level, code := enclosingCell(r)
	if int(key[0]) != level || binary.BigEndian.Uint64(key[1:]) != code {
		return adm.Rectangle{}, nil, fmt.Errorf("%w: prefix is level %d, rectangle %v is level %d", ErrKeyLayout, key[0], r, level)
	}
	return r, key[cellLen+rectLen:], nil
}

// zrange is an inclusive range of Morton codes.
type zrange struct{ lo, hi uint64 }

// cover returns, sorted and disjoint, the Morton ranges at one level whose
// cells the probe touches: at most maxCoverCells ranges. The probe is covered
// with cells between a quarter and a half of its longer side (in image
// space), so at most five lie along either axis and the cover overshoots the
// probe by at most one such cell per side. At a level deeper than those cells
// each range is a cover cell's sub-cells; at a shallower one the ranges are
// the level's own cells, the cover cells' ancestors.
func cover(probe adm.Rectangle, level int) []zrange {
	x0, y0 := image(probe.LowerLeft.X), image(probe.LowerLeft.Y)
	x1, y1 := image(probe.UpperRight.X), image(probe.UpperRight.Y)
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	level = min(level, maxLevel-bits.Len32(max(x1-x0, y1-y0))+2)
	shift := maxLevel - level
	ranges := make([]zrange, 0, maxCoverCells)
	x0, x1, y0, y1 = x0>>shift, x1>>shift, y0>>shift, y1>>shift
	for i := uint32(0); i <= x1-x0; i++ {
		for j := uint32(0); j <= y1-y0; j++ {
			lo := cellCode(level, (x0+i)<<shift, (y0+j)<<shift)
			ranges = append(ranges, zrange{lo, lo | lowBits(level)})
		}
	}
	slices.SortFunc(ranges, func(a, b zrange) int { return cmp.Compare(a.lo, b.lo) })
	merged := ranges[:1]
	for _, r := range ranges[1:] {
		if last := &merged[len(merged)-1]; last.hi+1 == r.lo {
			last.hi = r.hi
		} else {
			merged = append(merged, r)
		}
	}
	return merged
}

// Search visits the primary key of every entry whose rectangle intersects
// probe (spatial.RectIntersects, boundaries included), in no particular
// order; visit returning false stops it. scan is the tree's range read
// (lsm.Tree.Range): it visits the keys in [lo, hi] in order. pk is a view
// into the tree's key and must be copied to be kept. Callers must serialize
// Search with the tree's mutations, same as any lsm.Tree read.
//
// Each level that holds entries costs one seek to find it — so an index of
// points pays for the deepest level only — plus one scan per range of the
// probe's cover, filtered by the exact rectangles the keys carry.
func Search(scan func(lo, hi []byte, visit func(key, value []byte) bool), probe adm.Rectangle, visit func(pk []byte) bool) error {
	if !spatial.RectIntersects(probe, probe) {
		return nil // a NaN corner: the probe intersects nothing, not even itself
	}
	var err error
	more := true // false once visit asks to stop or a key fails to decode
	for level := 0; more && level <= maxLevel; level++ {
		// Seek to the first entry at or below this level; its level is the
		// next one worth covering.
		next := maxLevel + 1
		scan(cellKey(level, 0), nil, func(key, _ []byte) bool {
			if _, _, err = DecodeEntryKey(key); err == nil {
				next = int(key[0])
			}
			return false
		})
		if level = next; level > maxLevel {
			break
		}
		for _, r := range cover(probe, level) {
			if !more {
				break
			}
			hi := cellKey(level+1, 0)
			if r.hi != math.MaxUint64 {
				hi = cellKey(level, r.hi+1)
			}
			scan(cellKey(level, r.lo), hi, func(key, _ []byte) bool {
				var rect adm.Rectangle
				var pk []byte
				if rect, pk, err = DecodeEntryKey(key); err != nil {
					more = false
				} else if spatial.RectIntersects(rect, probe) {
					more = visit(pk)
				}
				return more
			})
		}
	}
	return err
}
