package hyracks

import (
	"errors"
	"fmt"
	"io"

	"asterixdb/internal/adm"
	"asterixdb/internal/runfile"
)

// This file holds the blocking operators' only implementations: SortOp is an
// external merge sort, HybridHashJoinOp a robust dynamic hybrid hash join,
// HashGroupOp a spillable pre-aggregation. Each works in memory for as long
// as its runfile.Instance says the next tuple fits and spills when it does
// not; the operator's Spill budget (a share of the job's Config.MemoryBudget
// assigned by the translator) only moves that line, and an unlimited budget
// never reaches it.
//
// All three share the same discipline: tuples are accounted against the
// instance's budget share with runfile.TupleMemSize, spilling moves whole
// victim partitions (or sorted runs) into runfile run files, and every run
// is released by the operator on its way out — with the job's
// runfile.Manager as the backstop that removes anything left behind on any
// termination path.

const (
	// spillFanout is the number of intra-instance partitions the join build
	// side and the group-by hash table split into.
	spillFanout = 8
	// spillMaxLevel caps recursive repartitioning. Beyond it the join falls
	// back to the budget-chunked block nested-loop join and the group-by
	// groups in memory (a single group's rows must be materialized for
	// Reduce regardless).
	spillMaxLevel = 5
	// mergeFanIn caps how many sorted runs one merge pass reads, bounding
	// the merge's buffered-reader memory; more runs merge in multiple
	// passes.
	mergeFanIn = 16
)

// errStopDemand signals, through the recursive spill helpers, that emit
// returned false: every consumer is gone and the operator should unwind
// (cleaning up its runs) without reporting an error.
var errStopDemand = errors.New("hyracks: downstream demand gone")

// mergeReaderBufCap mirrors runfile's default reader buffer size; a merge
// reader never benefits from more than that.
const mergeReaderBufCap = 16 << 10

// mergeReaderBudget sizes the merge phase's buffered run readers against the
// operator's per-instance budget share. The merge holds up to mergeFanIn
// readers plus the in-memory tail open at once, and each reader's bufio
// buffer is real resident memory, so it must be accounted like everything
// else. The returned reserve — one buffer per potential cursor, at most half
// the share — is held back during accumulation (the sort spills that much
// earlier) so that the per-reader charges of the merge phase fit, and the
// operator's accounted peak never exceeds its share in either phase.
func mergeReaderBudget(per int64) (bufSize int, reserve int64) {
	b := per / (2 * (mergeFanIn + 1))
	if b > mergeReaderBufCap {
		b = mergeReaderBufCap
	}
	if b < 64 {
		b = 64
	}
	return int(b), b * (mergeFanIn + 1)
}

// spillHash assigns a key to an intra-operator partition. The level salt
// decorrelates it both from the connector hash that routed tuples to this
// instance (which hashes the bare key bytes) and from the parent level's
// split, so recursive repartitioning actually subdivides skewed partitions.
//
// The raw FNV sum must be avalanched before truncating to the fanout:
// FNV's low bits evolve as a walk over only the low bits of each input
// byte, so `sum % 8` under a different level salt is merely a permutation
// of the previous level's buckets — every key of a spilled partition would
// re-land in one sub-partition and recursion would never subdivide. The
// murmur3 finalizer mixes every input bit into the bucket choice.
func spillHash(level int, key []byte) int {
	// Inlined FNV-1a (salt folded in first): this runs once per tuple on
	// every spill hot path, and hash.Hash32 would allocate per call.
	const (
		fnvOffset = 2166136261
		fnvPrime  = 16777619
	)
	x := uint32(fnvOffset)
	x = (x ^ 0xA5) * fnvPrime
	x = (x ^ uint32(byte(level))) * fnvPrime
	for _, b := range key {
		x = (x ^ uint32(b)) * fnvPrime
	}
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return int(x % uint32(spillFanout))
}

// writeRun spills tuples, in order, into a fresh run file attributed to
// the owning operator's budget.
func writeRun(mem *runfile.Instance, rows []Tuple) (*runfile.Run, error) {
	w, err := mem.NewRun()
	if err != nil {
		return nil, err
	}
	for _, t := range rows {
		if err := w.Write(t); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

// ----------------------------------------------------------------------------
// External merge sort (SortOp)
// ----------------------------------------------------------------------------

// Run implements Operator: in-memory runs are sorted and spilled when the
// budget share fills, and emission k-way-merges the spilled runs with the
// final in-memory run, stably (ties resolve to the earlier run, so the whole
// sort is stable however many runs it took).
func (o *SortOp) Run(_ int, ins []*In, emit func(Tuple) bool) error {
	mem := o.Spill.NewInstance()
	defer mem.Close()
	readerBuf, readerReserve := mergeReaderBudget(mem.Limit())
	var runs []*runfile.Run
	defer func() {
		for _, r := range runs {
			r.Release()
		}
	}()

	// During accumulation the instance holds exactly the buffered rows.
	var rows []Tuple
	for {
		t, more := ins[0].Next()
		if !more {
			break
		}
		sz := runfile.TupleMemSize(t)
		if !mem.Fits(sz + readerReserve) {
			if err := o.sortRows(rows); err != nil {
				return err
			}
			run, err := writeRun(mem, rows)
			if err != nil {
				return err
			}
			runs = append(runs, run)
			mem.Release(mem.Used())
			rows = rows[:0]
		}
		mem.Add(sz)
		rows = append(rows, t)
	}
	if err := o.sortRows(rows); err != nil {
		return err
	}
	if len(runs) == 0 {
		for _, t := range rows {
			if !emit(t) {
				return nil
			}
		}
		return nil
	}

	// Multi-pass merge: reduce the run count below the fan-in cap by merging
	// the oldest runs into one (keeping it at the front preserves run order,
	// and with it stability).
	for len(runs) > mergeFanIn {
		w, err := mem.NewRun()
		if err != nil {
			return err
		}
		if err := o.mergeRuns(mem, readerBuf, runs[:mergeFanIn], nil, func(t Tuple) error { return w.Write(t) }); err != nil {
			w.Abort()
			return err
		}
		merged, err := w.Finish()
		if err != nil {
			return err
		}
		for _, r := range runs[:mergeFanIn] {
			r.Release()
		}
		runs = append([]*runfile.Run{merged}, runs[mergeFanIn:]...)
	}

	err := o.mergeRuns(mem, readerBuf, runs, rows, func(t Tuple) error {
		if !emit(t) {
			return errStopDemand
		}
		return nil
	})
	if err == errStopDemand {
		return nil
	}
	return err
}

// sortCursor iterates one sorted source during a merge: either a run file or
// the final in-memory run.
type sortCursor struct {
	r    *runfile.Reader // nil for the in-memory tail
	rows []Tuple
	idx  int
	cur  Tuple
	done bool
}

func (c *sortCursor) advance() error {
	if c.r == nil {
		if c.idx >= len(c.rows) {
			c.done = true
			return nil
		}
		c.cur = c.rows[c.idx]
		c.idx++
		return nil
	}
	cols, err := c.r.Next()
	if err == io.EOF {
		c.done = true
		return nil
	}
	if err != nil {
		return err
	}
	c.cur = Tuple(cols)
	return nil
}

// mergeRuns merges the sorted runs (plus an optional in-memory tail, which
// ranks after every run) into the sink. The cursor count is small (at most
// mergeFanIn+1) so each step selects the minimum by linear scan; ties pick
// the lowest cursor index, which is run-creation order — the stability rule.
// Each open reader's bufSize I/O buffer is charged against mem for as long
// as the reader is open.
func (o *SortOp) mergeRuns(mem *runfile.Instance, bufSize int, runs []*runfile.Run, tail []Tuple, sink func(Tuple) error) error {
	cursors := make([]*sortCursor, 0, len(runs)+1)
	defer func() {
		for _, c := range cursors {
			if c.r != nil {
				c.r.Close()
				mem.Release(int64(bufSize))
			}
		}
	}()
	for _, r := range runs {
		rd, err := r.OpenSized(bufSize)
		if err != nil {
			return err
		}
		mem.Add(int64(bufSize))
		cursors = append(cursors, &sortCursor{r: rd})
	}
	if tail != nil {
		cursors = append(cursors, &sortCursor{rows: tail})
	}
	for _, c := range cursors {
		if err := c.advance(); err != nil {
			return err
		}
	}
	for {
		var min *sortCursor
		for _, c := range cursors {
			if c.done {
				continue
			}
			if min == nil {
				min = c
				continue
			}
			cmp, err := o.compareTuples(c.cur, min.cur)
			if err != nil {
				return err
			}
			if cmp < 0 {
				min = c
			}
		}
		if min == nil {
			return nil
		}
		if err := sink(min.cur); err != nil {
			return err
		}
		if err := min.advance(); err != nil {
			return err
		}
	}
}

// ----------------------------------------------------------------------------
// Robust dynamic hybrid hash join (HybridHashJoinOp)
// ----------------------------------------------------------------------------

// joinPartition is one intra-instance slice of the build side: a resident
// hash table until the partition is chosen as a spill victim, a run-file
// writer after.
type joinPartition struct {
	table map[string][]Tuple
	bytes int64
	w     *runfile.Writer
}

// Run implements Operator. Build tuples (port 1, the blocking Join Build
// activity) hash into spillFanout partitions, each its own hash table; under
// memory pressure the largest resident partition is evicted to a run file
// (dynamic victim selection — partitions stay resident as long as the actual
// data allows, rather than a static hybrid split). Probe tuples (port 0)
// against resident partitions stream straight through; those destined for
// spilled partitions are deferred to probe run files and joined recursively
// afterwards.
func (o *HybridHashJoinOp) Run(_ int, ins []*In, emit func(Tuple) bool) error {
	if len(ins) < 2 {
		return fmt.Errorf("hyracks: %s requires a build input on port 1", o.Label)
	}
	mem := o.Spill.NewInstance()
	defer mem.Close()

	parts := make([]*joinPartition, spillFanout)
	for i := range parts {
		parts[i] = &joinPartition{table: map[string][]Tuple{}}
	}
	probeW := make([]*runfile.Writer, spillFanout)
	var pending []*runfile.Run
	defer func() {
		// Abandoned writers and runs on error/early-return paths.
		for _, pt := range parts {
			if pt.w != nil {
				pt.w.Abort()
			}
		}
		for _, w := range probeW {
			if w != nil {
				w.Abort()
			}
		}
		for _, r := range pending {
			r.Release()
		}
	}()

	spillVictim := func() (bool, error) {
		vi := -1
		for i, pt := range parts {
			if pt.w == nil && pt.bytes > 0 && (vi < 0 || pt.bytes > parts[vi].bytes) {
				vi = i
			}
		}
		if vi < 0 {
			return false, nil
		}
		pt := parts[vi]
		w, err := mem.NewRun()
		if err != nil {
			return false, err
		}
		for _, rows := range pt.table {
			for _, t := range rows {
				if err := w.Write(t); err != nil {
					w.Abort()
					return false, err
				}
			}
		}
		pt.w = w
		mem.Release(pt.bytes)
		pt.table, pt.bytes = nil, 0
		return true, nil
	}

	// Join Build activity. The key-encoding buffer is reused across tuples;
	// only the map-key insertion copies it.
	var scratch []byte
	for {
		t, more := ins[1].Next()
		if !more {
			break
		}
		scratch = adm.EncodeKey(scratch[:0], o.BuildKey(t))
		pt := parts[spillHash(0, scratch)]
		if pt.w == nil {
			sz := runfile.TupleMemSize(t)
			for !mem.Fits(sz) && pt.w == nil {
				ok, err := spillVictim()
				if err != nil {
					return err
				}
				if !ok {
					break // nothing evictable; overshoot by this tuple
				}
			}
			if pt.w == nil {
				mem.Add(sz)
				k := string(scratch)
				pt.table[k] = append(pt.table[k], t)
				pt.bytes += sz
				continue
			}
		}
		if err := pt.w.Write(t); err != nil {
			return err
		}
	}

	// Join Probe activity: stream against resident partitions, defer the
	// rest to per-partition probe run files.
	for {
		t, more := ins[0].Next()
		if !more {
			break
		}
		scratch = adm.EncodeKey(scratch[:0], o.ProbeKey(t))
		pi := spillHash(0, scratch)
		if parts[pi].w == nil {
			for _, b := range parts[pi].table[string(scratch)] {
				if !emit(o.Combine(t, b)) {
					return nil
				}
			}
			continue
		}
		if probeW[pi] == nil {
			w, err := mem.NewRun()
			if err != nil {
				return err
			}
			probeW[pi] = w
		}
		if err := probeW[pi].Write(t); err != nil {
			return err
		}
	}

	// Release the resident build memory before recursing into spilled pairs.
	for _, pt := range parts {
		if pt.w == nil {
			mem.Release(pt.bytes)
			pt.table, pt.bytes = nil, 0
		}
	}

	// Recursive phase: join each spilled (build, probe) pair.
	for pi, pt := range parts {
		if pt.w == nil {
			continue
		}
		bRun, err := pt.w.Finish()
		pt.w = nil
		if err != nil {
			return err
		}
		pending = append(pending, bRun)
		var pRun *runfile.Run
		if probeW[pi] != nil {
			pRun, err = probeW[pi].Finish()
			probeW[pi] = nil
			if err != nil {
				return err
			}
			pending = append(pending, pRun)
		}
		err = o.joinRuns(mem, bRun, pRun, 1, emit)
		bRun.Release()
		pRun.Release()
		if err == errStopDemand {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// joinRuns joins one spilled (build, probe) pair: loading the build side
// when it fits the budget share, repartitioning both sides at the next hash
// level when it does not, and falling back to the block nested-loop join at
// the recursion cap or when repartitioning makes no progress (every build
// tuple has the same key — the pathological-skew case repartitioning can
// never subdivide).
func (o *HybridHashJoinOp) joinRuns(mem *runfile.Instance, build, probe *runfile.Run, level int, emit func(Tuple) bool) error {
	if build == nil || probe == nil || build.Tuples() == 0 || probe.Tuples() == 0 {
		return nil
	}
	if build.MemBytes() <= mem.Limit() {
		return o.hashJoinRunPair(mem, build, probe, emit)
	}
	if level >= spillMaxLevel {
		return o.blockJoinRunPair(mem, build, probe, emit)
	}
	bSubs, err := o.partitionRun(mem, build, level, o.BuildKey)
	if err != nil {
		releaseRuns(bSubs)
		return err
	}
	pSubs, err := o.partitionRun(mem, probe, level, o.ProbeKey)
	if err != nil {
		releaseRuns(bSubs)
		releaseRuns(pSubs)
		return err
	}
	defer releaseRuns(bSubs)
	defer releaseRuns(pSubs)
	for i := range bSubs {
		b, p := bSubs[i], pSubs[i]
		var err error
		if b != nil && b.Tuples() == build.Tuples() && b.MemBytes() > mem.Limit() {
			// No progress: the whole parent landed in one child and still
			// does not fit. Rehashing deeper cannot help; go robust.
			err = o.blockJoinRunPair(mem, b, p, emit)
		} else {
			err = o.joinRuns(mem, b, p, level+1, emit)
		}
		if b != nil {
			b.Release()
		}
		if p != nil {
			p.Release()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func releaseRuns(runs []*runfile.Run) {
	for _, r := range runs {
		if r != nil {
			r.Release()
		}
	}
}

// partitionRun splits a run into spillFanout sub-runs by the level-salted
// hash of each tuple's key; empty sub-partitions return nil.
func (o *HybridHashJoinOp) partitionRun(mem *runfile.Instance, run *runfile.Run, level int, key func(Tuple) adm.Value) ([]*runfile.Run, error) {
	writers := make([]*runfile.Writer, spillFanout)
	abort := func() {
		for _, w := range writers {
			if w != nil {
				w.Abort()
			}
		}
	}
	rd, err := run.Open()
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	var scratch []byte
	for {
		cols, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			abort()
			return nil, err
		}
		t := Tuple(cols)
		scratch = adm.EncodeKey(scratch[:0], key(t))
		pi := spillHash(level, scratch)
		if writers[pi] == nil {
			w, err := mem.NewRun()
			if err != nil {
				abort()
				return nil, err
			}
			writers[pi] = w
		}
		if err := writers[pi].Write(t); err != nil {
			abort()
			return nil, err
		}
	}
	subs := make([]*runfile.Run, spillFanout)
	for i, w := range writers {
		if w == nil {
			continue
		}
		r, err := w.Finish()
		writers[i] = nil
		if err != nil {
			abort()
			releaseRuns(subs)
			return nil, err
		}
		subs[i] = r
	}
	return subs, nil
}

// hashJoinRunPair loads the whole build run into a hash table (it fits the
// budget share) and streams the probe run through it.
func (o *HybridHashJoinOp) hashJoinRunPair(mem *runfile.Instance, build, probe *runfile.Run, emit func(Tuple) bool) error {
	if probe == nil || probe.Tuples() == 0 {
		return nil
	}
	table := map[string][]Tuple{}
	var loaded int64
	defer func() { mem.Release(loaded) }()
	br, err := build.Open()
	if err != nil {
		return err
	}
	var scratch []byte
	for {
		cols, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			br.Close()
			return err
		}
		t := Tuple(cols)
		sz := runfile.TupleMemSize(t)
		mem.Add(sz)
		loaded += sz
		scratch = adm.EncodeKey(scratch[:0], o.BuildKey(t))
		table[string(scratch)] = append(table[string(scratch)], t)
	}
	br.Close()
	pr, err := probe.Open()
	if err != nil {
		return err
	}
	defer pr.Close()
	for {
		cols, err := pr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		t := Tuple(cols)
		scratch = adm.EncodeKey(scratch[:0], o.ProbeKey(t))
		for _, b := range table[string(scratch)] {
			if !emit(o.Combine(t, b)) {
				return errStopDemand
			}
		}
	}
}

// blockJoinRunPair is the safe fallback for build runs that can never fit:
// the build run is read in budget-sized chunks and the probe run is
// re-streamed once per chunk. Memory stays bounded at one chunk regardless
// of key skew; the cost is extra probe passes, not failure.
func (o *HybridHashJoinOp) blockJoinRunPair(mem *runfile.Instance, build, probe *runfile.Run, emit func(Tuple) bool) error {
	if probe == nil || probe.Tuples() == 0 {
		return nil
	}
	br, err := build.Open()
	if err != nil {
		return err
	}
	defer br.Close()
	var scratch []byte
	buildDone := false
	for !buildDone {
		table := map[string][]Tuple{}
		var chunkBytes int64
		chunkTuples := 0
		for {
			cols, err := br.Next()
			if err == io.EOF {
				buildDone = true
				break
			}
			if err != nil {
				mem.Release(chunkBytes)
				return err
			}
			t := Tuple(cols)
			sz := runfile.TupleMemSize(t)
			mem.Add(sz)
			chunkBytes += sz
			scratch = adm.EncodeKey(scratch[:0], o.BuildKey(t))
			table[string(scratch)] = append(table[string(scratch)], t)
			chunkTuples++
			if !mem.Fits(1) {
				break // chunk at capacity; next tuple starts a new chunk
			}
		}
		if chunkTuples == 0 {
			mem.Release(chunkBytes)
			break
		}
		pr, err := probe.Open()
		if err != nil {
			mem.Release(chunkBytes)
			return err
		}
		for {
			cols, err := pr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				pr.Close()
				mem.Release(chunkBytes)
				return err
			}
			t := Tuple(cols)
			scratch = adm.EncodeKey(scratch[:0], o.ProbeKey(t))
			for _, b := range table[string(scratch)] {
				if !emit(o.Combine(t, b)) {
					pr.Close()
					mem.Release(chunkBytes)
					return errStopDemand
				}
			}
		}
		pr.Close()
		mem.Release(chunkBytes)
	}
	return nil
}

// ----------------------------------------------------------------------------
// Spillable pre-aggregation (HashGroupOp)
// ----------------------------------------------------------------------------

// Run implements Operator: the fold-as-you-go accumulator table when Aggs is
// set (aggStream, groupagg.go), the row-materializing one for Reduce
// (groupStream) otherwise.
func (o *HashGroupOp) Run(_ int, ins []*In, emit func(Tuple) bool) error {
	mem := o.Spill.NewInstance()
	defer mem.Close()
	next := func() (Tuple, bool, error) {
		t, more := ins[0].Next()
		return t, more, nil
	}
	var err error
	if o.Aggs != nil {
		err = o.aggStream(mem, 0, next, false, emit)
	} else {
		err = o.groupStream(mem, 0, next, emit)
	}
	if err == errStopDemand {
		return nil
	}
	return err
}

// spillGroup is one group's materialized state.
type spillGroup struct {
	key  Tuple
	rows []Tuple
}

// groupPartition is one intra-instance hash partition of the group table:
// resident groups until chosen as a spill victim, a raw-tuple run file
// after.
type groupPartition struct {
	groups map[string]*spillGroup
	order  []string
	bytes  int64
	w      *runfile.Writer
}

// groupStream consumes a tuple stream, grouping into spillFanout hash
// partitions. Under pressure the largest resident partition's raw tuples
// spill to a run file (per-group arrival order is preserved, so
// with-variable bags reload identically); spilled partitions re-aggregate
// recursively at the next hash level. At the recursion cap the partition
// groups in memory regardless — Reduce needs a group's full row set, so a
// single oversized group is materialized either way; the cap just stops
// futile repartitioning.
func (o *HashGroupOp) groupStream(mem *runfile.Instance, level int, next func() (Tuple, bool, error), emit func(Tuple) bool) error {

	parts := make([]*groupPartition, spillFanout)
	for i := range parts {
		parts[i] = &groupPartition{groups: map[string]*spillGroup{}}
	}
	defer func() {
		for _, pt := range parts {
			if pt.w != nil {
				pt.w.Abort()
			}
		}
	}()
	atCap := level >= spillMaxLevel

	spillVictim := func() (bool, error) {
		vi := -1
		for i, pt := range parts {
			if pt.w == nil && len(pt.order) > 0 && (vi < 0 || pt.bytes > parts[vi].bytes) {
				vi = i
			}
		}
		if vi < 0 {
			return false, nil
		}
		pt := parts[vi]
		w, err := mem.NewRun()
		if err != nil {
			return false, err
		}
		for _, ks := range pt.order {
			for _, t := range pt.groups[ks].rows {
				if err := w.Write(t); err != nil {
					w.Abort()
					return false, err
				}
			}
		}
		pt.w = w
		mem.Release(pt.bytes)
		pt.groups, pt.order, pt.bytes = nil, nil, 0
		return true, nil
	}

	var scratch []byte
	for {
		t, more, err := next()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		scratch = scratch[:0]
		for _, col := range o.KeyColumns {
			scratch = adm.EncodeKey(scratch, t[col])
		}
		pt := parts[spillHash(level, scratch)]
		if pt.w != nil {
			if err := pt.w.Write(t); err != nil {
				return err
			}
			continue
		}
		ks := string(scratch)
		sz := runfile.TupleMemSize(t)
		if pt.groups[ks] == nil {
			sz += 64 + int64(len(ks)) // new group: key copy + map entry
		}
		if !atCap {
			for !mem.Fits(sz) && pt.w == nil {
				ok, err := spillVictim()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
			if pt.w != nil {
				if err := pt.w.Write(t); err != nil {
					return err
				}
				continue
			}
		}
		g := pt.groups[ks]
		if g == nil {
			key := make(Tuple, 0, len(o.KeyColumns))
			for _, col := range o.KeyColumns {
				key = append(key, t[col])
			}
			g = &spillGroup{key: key}
			pt.groups[ks] = g
			pt.order = append(pt.order, ks)
		}
		g.rows = append(g.rows, t)
		mem.Add(sz)
		pt.bytes += sz
	}

	// Emit every resident partition first (releasing its memory), then
	// re-aggregate the spilled partitions with the freed budget.
	for _, pt := range parts {
		if pt.w != nil {
			continue
		}
		for _, ks := range pt.order {
			g := pt.groups[ks]
			out, err := o.Reduce(g.key, g.rows)
			if err != nil {
				return err
			}
			if out != nil && !emit(out) {
				return errStopDemand
			}
		}
		mem.Release(pt.bytes)
		pt.groups, pt.order, pt.bytes = nil, nil, 0
	}
	for _, pt := range parts {
		if pt.w == nil {
			continue
		}
		run, err := pt.w.Finish()
		pt.w = nil
		if err != nil {
			return err
		}
		rd, err := run.Open()
		if err != nil {
			run.Release()
			return err
		}
		err = o.groupStream(mem, level+1, func() (Tuple, bool, error) {
			cols, err := rd.Next()
			if err == io.EOF {
				return nil, false, nil
			}
			if err != nil {
				return nil, false, err
			}
			return Tuple(cols), true, nil
		}, emit)
		rd.Close()
		run.Release()
		if err != nil {
			return err
		}
	}
	return nil
}
