// The R-tree secondary index's LSM key layout. The durable truth is an
// lsm.Tree the storage layer owns, whose keys are a fixed 32-byte rectangle
// encoding followed by the encoded primary key (making every entry unique per
// record), with the same flush/antimatter/merge/recovery lifecycle as every
// other index. Storage keeps a Tree alongside purely as a search accelerator
// for intersection probes and rebuilds it on open by decoding these keys.

package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
)

// entryKeyRectLen is the fixed size of the rectangle prefix in an entry key.
const entryKeyRectLen = 32

// EncodeEntryKey builds the LSM key for one R-tree entry: the four rectangle
// coordinates as big-endian float bits, then the primary key. The encoding
// is canonical (one rect+pk pair has exactly one key), which is what lets
// WAL replay re-apply entries idempotently.
func EncodeEntryKey(r Rect, pk []byte) []byte {
	key := make([]byte, entryKeyRectLen, entryKeyRectLen+len(pk))
	binary.BigEndian.PutUint64(key[0:], math.Float64bits(r.MinX))
	binary.BigEndian.PutUint64(key[8:], math.Float64bits(r.MinY))
	binary.BigEndian.PutUint64(key[16:], math.Float64bits(r.MaxX))
	binary.BigEndian.PutUint64(key[24:], math.Float64bits(r.MaxY))
	return append(key, pk...)
}

// DecodeEntryKey splits an LSM entry key back into rectangle and primary key.
func DecodeEntryKey(key []byte) (Rect, []byte, error) {
	if len(key) < entryKeyRectLen {
		return Rect{}, nil, fmt.Errorf("rtree: entry key too short (%d bytes)", len(key))
	}
	r := Rect{
		MinX: math.Float64frombits(binary.BigEndian.Uint64(key[0:])),
		MinY: math.Float64frombits(binary.BigEndian.Uint64(key[8:])),
		MaxX: math.Float64frombits(binary.BigEndian.Uint64(key[16:])),
		MaxY: math.Float64frombits(binary.BigEndian.Uint64(key[24:])),
	}
	return r, key[entryKeyRectLen:], nil
}
