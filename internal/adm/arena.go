package adm

import (
	"sync"
	"sync/atomic"
)

// Arena is a pooled block allocator for LazyRecord headers. A scan acquires
// one, draws zeroed headers from it via newRecord (one allocation per
// lazyRecBlock records instead of one per record), and releases it when the
// scan ends. A header is all a lazy record allocates: it keeps no slot
// directory. Records hold no reference back to the arena: header slots are
// handed out monotonically and never reused, so the unconsumed tail of the
// current block survives pooling and keeps serving the next scan, while
// consumed slots stay alive with whichever tuples still hold them.
//
// Safety model: only the acquiring goroutine may call newRecord, and Release
// must be called exactly once. Over-releasing is the one bug that could hand
// the same arena to two concurrent scans (racing on the block cursor), so it
// panics loudly instead.
type Arena struct {
	refs atomic.Int32
	recs []LazyRecord
}

// lazyRecBlock is how many LazyRecord headers one block allocation covers.
const lazyRecBlock = 64

// newRecord returns a zeroed LazyRecord header from the arena's current
// block. May only be called by the arena's owning goroutine. Nil-safe:
// without an arena the header is an ordinary heap allocation.
func (a *Arena) newRecord() *LazyRecord {
	if a == nil {
		return &LazyRecord{}
	}
	if len(a.recs) == 0 {
		a.recs = make([]LazyRecord, lazyRecBlock)
	}
	r := &a.recs[0]
	a.recs = a.recs[1:]
	return r
}

var arenaPool = sync.Pool{
	New: func() any { return &Arena{} },
}

// AcquireArena returns a pooled arena owned by the caller until Release.
func AcquireArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.refs.Store(1)
	return a
}

// Release returns the arena to the pool. Nil-safe. Releasing twice panics:
// a double-pooled arena would be handed to two scans at once.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) != 0 {
		panic("adm: arena over-released")
	}
	arenaPool.Put(a)
}
