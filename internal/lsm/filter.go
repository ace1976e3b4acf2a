package lsm

import "hash/maphash"

// filterSeed keys every key hash. Filters live only in memory — the first
// Get that reaches a component builds its filter from its image — so one
// seed per process suffices.
var filterSeed = maphash.MakeSeed()

// keyHash is the one hash of a key that every filter probes with.
func keyHash(key []byte) uint64 { return maphash.Bytes(filterSeed, key) }

const (
	// filterBitsPerKey sizes a filter: 20 bits, 2.5 bytes, per entry, and
	// filterProbes is the bits a key sets and tests, ln 2 × bits per key
	// rounded, so (1 - e^(-14/20))^14, about 0.007 %, of absent keys pass
	// a filter. The sizing serves the Gets that miss: every insert reads
	// the key it may replace, usually a new one, and such a Get reads about
	// components × rate × 16 KiB of pages into the cache, pages no later
	// read wants. Over 10 components that is about 11 bytes a Get; 10 bits
	// and 7 probes (0.8 %) read about 1.3 KiB for half the filter bytes.
	filterBitsPerKey = 20
	filterProbes     = 14
	// filterMaxWords caps a filter at 2^32 bits, so a probe maps a 32-bit
	// hash onto the filter with one multiply.
	filterMaxWords = 1 << 26
)

// filter is a bloom filter over a component's keys, antimatter included, so
// a tombstone is found like any other entry. mayContain is true for every
// key of the component and for about 0.007 % of other keys.
type filter []uint64

// newFilter returns an empty filter sized for n keys.
func newFilter(n uint64) filter {
	words := min((n*filterBitsPerKey+63)/64, filterMaxWords)
	return make(filter, max(words, 1))
}

// add sets the bits of a key whose hash is h.
func (f filter) add(h uint64) {
	bits := uint64(len(f)) * 64
	a, b := uint32(h), uint32(h>>32)
	for range filterProbes {
		bit := uint64(a) * bits >> 32
		f[bit/64] |= 1 << (bit % 64)
		a += b
	}
}

// mayContain reports whether a key whose hash is h may be in the
// component: false only if it is certainly not.
func (f filter) mayContain(h uint64) bool {
	bits := uint64(len(f)) * 64
	a, b := uint32(h), uint32(h>>32)
	for range filterProbes {
		bit := uint64(a) * bits >> 32
		if f[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
		a += b
	}
	return true
}
