package hyracks

import (
	"errors"
	"fmt"
	"io"

	"asterixdb/internal/adm"
	"asterixdb/internal/agg"
	"asterixdb/internal/runfile"
)

// This file holds the blocking operators' only implementations: SortOp is an
// external merge sort; HashGroupOp (every aggregation, keyed or scalar) and
// HybridHashJoinOp (keyed, or keyless as the nested-loop join) both run on
// the one spillTable.
// Each works in memory for as long as its runfile.Instance says the next
// tuple fits and spills when it does not; the operator's Spill budget (a
// share of the job's Config.MemoryBudget assigned by the translator) only
// moves that line, and an unlimited budget never reaches it.
//
// All share the same discipline: tuples are accounted against the instance's
// budget share with runfile.TupleMemSize, spilling moves whole victim
// partitions (or sorted runs) into runfile run files, and every run is
// released by the operator on its way out — with the job's runfile.Manager
// as the backstop that removes anything left behind on any termination path.

const (
	// spillFanout is the number of partitions a spillTable splits into.
	spillFanout = 8
	// spillMaxLevel caps recursive repartitioning: a table at this level no
	// longer evicts. The join reaches it only as a pass of the budget-chunked
	// block nested-loop fallback; the group-by groups in memory there (a
	// single group's listify holds all its items regardless).
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

// Run implements Operator: it drives the input into the sort's accumulate
// half, then emits. A fused chain runs the same two halves through Hold.
func (o *SortOp) Run(p int, ins []*In, emit func(Tuple) bool) error {
	h := o.Hold(p)
	defer h.Release()
	if err := drive(ins[0], h.Push); err != nil {
		return err
	}
	return h.Finish(emit)
}

// Hold implements HoldStage.
func (o *SortOp) Hold(int) Held {
	mem := o.Spill.NewInstance()
	s := &sortHold{o: o, mem: mem}
	s.readerBuf, s.readerReserve = mergeReaderBudget(mem.Limit())
	return s
}

// sortHold is one sort instance. Accumulation (Push) sorts in-memory runs
// and spills them when the budget share fills; emission (Finish)
// k-way-merges the spilled runs with the final in-memory run, stably (ties
// resolve to the earlier run, so the whole sort is stable however many runs
// it took).
//
// With a Limit the sort keeps a cut: the Limit-th row of the rows kept so
// far. A tuple that does not sort strictly before it cannot be among the
// first Limit rows (a tie arrived later, so the stable order ranks it after
// the cut) and is dropped; when the buffer reaches twice Limit it is sorted
// and truncated to Limit, and its last row is the new cut. Spilled rows are
// kept rows too, so a cut taken before a spill stays a valid bound after it.
type sortHold struct {
	o             *SortOp
	mem           *runfile.Instance
	readerBuf     int
	readerReserve int64
	runs          []*runfile.Run
	// During accumulation the instance holds exactly the buffered rows.
	rows []Tuple
	cut  Tuple
}

// Push accumulates one input tuple.
func (s *sortHold) Push(t Tuple) (bool, error) {
	o, mem := s.o, s.mem
	if s.cut != nil {
		c, err := o.compareTuples(t, s.cut)
		if err != nil {
			return false, err
		}
		if c >= 0 {
			return true, nil
		}
	}
	sz := runfile.TupleMemSize(t)
	if !mem.Fits(sz + s.readerReserve) {
		if err := o.sortRows(s.rows); err != nil {
			return false, err
		}
		run, err := writeRun(mem, s.rows)
		if err != nil {
			return false, err
		}
		s.runs = append(s.runs, run)
		mem.Release(mem.Used())
		s.rows = s.rows[:0]
	}
	mem.Add(sz)
	s.rows = append(s.rows, t)
	if o.Limit > 0 && len(s.rows)/2 >= o.Limit { // len(rows) >= 2*Limit without overflow
		if err := o.sortRows(s.rows); err != nil {
			return false, err
		}
		var dropped int64
		for _, r := range s.rows[o.Limit:] {
			dropped += runfile.TupleMemSize(r)
		}
		mem.Release(dropped)
		clear(s.rows[o.Limit:])
		s.rows = s.rows[:o.Limit]
		s.cut = s.rows[o.Limit-1]
	}
	return true, nil
}

// Finish emits the accumulated input in sorted order, stopping early when
// emit reports that demand is gone.
func (s *sortHold) Finish(emit func(Tuple) bool) error {
	o, mem, rows := s.o, s.mem, s.rows
	if err := o.sortRows(rows); err != nil {
		return err
	}
	if o.Limit > 0 && len(rows) > o.Limit {
		rows = rows[:o.Limit]
	}
	if len(s.runs) == 0 {
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
	for len(s.runs) > mergeFanIn {
		w, err := mem.NewRun()
		if err != nil {
			return err
		}
		if err := o.mergeRuns(mem, s.readerBuf, s.runs[:mergeFanIn], nil, func(t Tuple) error { return w.Write(t) }); err != nil {
			w.Abort()
			return err
		}
		merged, err := w.Finish()
		if err != nil {
			return err
		}
		for _, r := range s.runs[:mergeFanIn] {
			r.Release()
		}
		s.runs = append([]*runfile.Run{merged}, s.runs[mergeFanIn:]...)
	}

	emitted := 0
	err := o.mergeRuns(mem, s.readerBuf, s.runs, rows, func(t Tuple) error {
		if emitted++; !emit(t) || emitted == o.Limit {
			return errStopDemand
		}
		return nil
	})
	if err == errStopDemand {
		return nil
	}
	return err
}

// Release removes the instance's runs and returns its accounted memory. It
// is idempotent.
func (s *sortHold) Release() {
	for _, r := range s.runs {
		r.Release()
	}
	s.runs, s.rows, s.cut = nil, nil, nil
	s.mem.Close()
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
// The dynamic spill table (hash group-by and the join build)
// ----------------------------------------------------------------------------

// tupleSource is a pull stream of tuples: an operator input at level 0, a
// run-file reader at every level below.
type tupleSource func() (Tuple, bool, error)

func inSource(in *In) tupleSource {
	return func() (Tuple, bool, error) {
		t, more := in.Next()
		return t, more, nil
	}
}

// readRun streams a sealed run into fn, closing the reader on every path.
func readRun(run *runfile.Run, fn func(tupleSource) error) error {
	rd, err := run.Open()
	if err != nil {
		return err
	}
	defer rd.Close()
	return fn(func() (Tuple, bool, error) {
		cols, err := rd.Next()
		if err == io.EOF {
			return nil, false, nil
		}
		return Tuple(cols), err == nil, err
	})
}

// spillGroup is one key's resident state in a spillTable: the rows in
// arrival order for the join build, the key columns plus one accumulator per
// aggregate for the fold.
type spillGroup struct {
	rows []Tuple
	key  Tuple
	accs []agg.Accum
}

// spillClient is the kind knowledge a spillTable does not have. There are
// two: the fold (foldClient, groupagg.go), which is every group-by, and the
// join build (rowsClient: a hash-join build table is the build rows per
// key).
type spillClient interface {
	// key appends the tuple's encoded grouping key.
	key(dst []byte, t Tuple) []byte
	// size is what absorbing t will charge, known before it is absorbed;
	// fresh is set when t opens a new group.
	size(t Tuple, fresh bool) int64
	// absorb adds t to the group's state, returning any further change in
	// the state's resident bytes.
	absorb(g *spillGroup, t Tuple) (int64, error)
	// contribution is the run tuple that stands for t in the run of an
	// already-spilled partition; state is a resident group's state as run
	// tuples of that same form. Reloading a run absorbs those tuples.
	contribution(t Tuple) Tuple
	state(g *spillGroup) []Tuple
}

// rowsClient keeps each key's raw rows in arrival order and spills them as
// they are, so a reloaded group is identical to one that never left. The
// value is the key encoder.
type rowsClient func(dst []byte, t Tuple) []byte

func (k rowsClient) key(dst []byte, t Tuple) []byte { return k(dst, t) }
func (rowsClient) size(t Tuple, _ bool) int64       { return runfile.TupleMemSize(t) }
func (rowsClient) contribution(t Tuple) Tuple       { return t }
func (rowsClient) state(g *spillGroup) []Tuple      { return g.rows }

func (rowsClient) absorb(g *spillGroup, t Tuple) (int64, error) {
	g.rows = append(g.rows, t)
	return 0, nil
}

// groupOverhead is the accounting estimate for a group's map entry and
// bookkeeping, charged with the key bytes when the group is created.
const groupOverhead = 64

// spillPartition is one of a table's spillFanout slices: resident groups in
// first-encounter order until it is evicted, a run writer after.
type spillPartition struct {
	groups map[string]*spillGroup
	order  []*spillGroup
	bytes  int64
	w      *runfile.Writer
}

// spillTable is the one dynamic hybrid hash mechanism (Jahangiri et al.):
// tuples hash by key into spillFanout partitions at a level-salted hash; a
// partition stays resident while the instance's budget allows; under
// pressure the largest resident partition is evicted to a run file and later
// tuples of it are routed there; the owner consumes the residents (drain)
// and then re-runs each spilled partition one level down (spilled). A table
// at spillMaxLevel never evicts — it is what remains when subdividing has
// stopped helping.
type spillTable struct {
	mem     *runfile.Instance
	client  spillClient
	level   int
	parts   [spillFanout]spillPartition
	seen    int // tuples inserted, resident or routed
	scratch []byte
}

// fill inserts every tuple of the stream.
func (t *spillTable) fill(next tupleSource) error {
	for {
		tup, more, err := next()
		if err != nil || !more {
			return err
		}
		if err := t.insert(tup); err != nil {
			return err
		}
	}
}

// insert absorbs the tuple into its key's group, evicting victims until it
// fits; once the tuple's own partition is spilled (before or by that) its
// contribution goes to the partition's run instead.
func (t *spillTable) insert(tup Tuple) error {
	t.seen++
	t.scratch = t.client.key(t.scratch[:0], tup)
	pt := &t.parts[spillHash(t.level, t.scratch)]
	var g *spillGroup
	var sz int64
	if pt.w == nil {
		g = pt.groups[string(t.scratch)]
		sz = t.client.size(tup, g == nil)
		if g == nil {
			sz += groupOverhead + int64(len(t.scratch))
		}
		for pt.w == nil && t.level < spillMaxLevel && !t.mem.Fits(sz) {
			if ok, err := t.evict(); err != nil {
				return err
			} else if !ok {
				break // nothing evictable; overshoot by this tuple
			}
		}
	}
	if pt.w != nil {
		return pt.w.Write(t.client.contribution(tup))
	}
	if g == nil {
		if pt.groups == nil {
			pt.groups = map[string]*spillGroup{}
		}
		g = &spillGroup{}
		pt.groups[string(t.scratch)] = g
		pt.order = append(pt.order, g)
	}
	delta, err := t.client.absorb(g, tup)
	if sz += delta; sz != 0 { // folding into an existing group usually retains nothing
		t.mem.Add(sz)
		pt.bytes += sz
	}
	return err
}

// evict is the victim policy: the largest resident partition's groups are
// written to a fresh run and its bytes released. It reports false when no
// partition holds anything.
func (t *spillTable) evict() (bool, error) {
	vi := -1
	for i := range t.parts {
		if pt := &t.parts[i]; pt.w == nil && len(pt.order) > 0 && (vi < 0 || pt.bytes > t.parts[vi].bytes) {
			vi = i
		}
	}
	if vi < 0 {
		return false, nil
	}
	pt := &t.parts[vi]
	w, err := t.mem.NewRun()
	if err != nil {
		return false, err
	}
	for _, g := range pt.order {
		for _, tup := range t.client.state(g) {
			if err := w.Write(tup); err != nil {
				w.Abort()
				return false, err
			}
		}
	}
	t.mem.Release(pt.bytes)
	*pt = spillPartition{w: w}
	return true, nil
}

// lookup finds a key without creating anything: its partition, whether that
// partition is spilled, and otherwise the key's resident group (nil when the
// key is absent).
func (t *spillTable) lookup(key []byte) (pi int, g *spillGroup, spilled bool) {
	pi = spillHash(t.level, key)
	pt := &t.parts[pi]
	return pi, pt.groups[string(key)], pt.w != nil
}

// drain visits every resident group, partition by partition in
// first-encounter order, and releases each partition's bytes behind it, so
// the spilled partitions re-run with the whole share. A nil visit only
// releases.
func (t *spillTable) drain(visit func(*spillGroup) error) error {
	for i := range t.parts {
		pt := &t.parts[i]
		if pt.w != nil {
			continue
		}
		if visit != nil {
			for _, g := range pt.order {
				if err := visit(g); err != nil {
					return err
				}
			}
		}
		t.mem.Release(pt.bytes)
		*pt = spillPartition{}
	}
	return nil
}

// spilled seals each evicted partition's run, hands it to fn to be re-run
// one level down, and releases it.
func (t *spillTable) spilled(fn func(pi int, run *runfile.Run) error) error {
	for i := range t.parts {
		pt := &t.parts[i]
		if pt.w == nil {
			continue
		}
		run, err := pt.w.Finish()
		pt.w = nil
		if err != nil {
			return err
		}
		err = fn(i, run)
		run.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// abort discards the writers still open when the owner unwinds early.
func (t *spillTable) abort() {
	for i := range t.parts {
		if w := t.parts[i].w; w != nil {
			w.Abort()
		}
	}
}

// ----------------------------------------------------------------------------
// Spillable pre-aggregation (HashGroupOp)
// ----------------------------------------------------------------------------

// Run implements Operator. A keyless operator that emits nothing saw no
// input: outside the Local stage it still emits the one empty group, since
// an aggregate over nothing is one value.
func (o *HashGroupOp) Run(_ int, ins []*In, emit func(Tuple) bool) error {
	mem := o.Spill.NewInstance()
	defer mem.Close()
	fns := parseAggFns(o.Aggs)
	emitted := false
	err := o.group(mem, fns, 0, inSource(ins[0]), func(t Tuple) bool {
		emitted = true
		return emit(t)
	})
	if err == nil && !emitted && len(o.KeyColumns) == 0 && o.Split != Local {
		emit((&foldClient{o: o, fns: fns}).finish(&spillGroup{accs: make([]agg.Accum, len(fns))}))
	}
	if err == errStopDemand {
		return nil
	}
	return err
}

// group aggregates one stream through a spill table: resident groups are
// emitted first, then each spilled partition's run is aggregated by the same
// body one level down, where the stream is accumulator tuples. At
// spillMaxLevel the groups are held in memory regardless — a group's listify
// holds its items whatever the budget. A Local operator emits each group in
// that accumulator form.
func (o *HashGroupOp) group(mem *runfile.Instance, fns []agg.Fn, level int, next tupleSource, emit func(Tuple) bool) error {
	c := &foldClient{o: o, fns: fns, reloaded: level > 0 || o.Split == Global}
	tbl := &spillTable{mem: mem, client: c, level: level}
	defer tbl.abort()
	if err := tbl.fill(next); err != nil {
		return err
	}
	err := tbl.drain(func(g *spillGroup) error {
		out := c.finish
		if o.Split == Local {
			out = (*spillGroup).accTuple
		}
		if !emit(out(g)) {
			return errStopDemand
		}
		return nil
	})
	if err != nil {
		return err
	}
	return tbl.spilled(func(_ int, run *runfile.Run) error {
		return readRun(run, func(next tupleSource) error { return o.group(mem, fns, level+1, next, emit) })
	})
}

// encodeKey appends the encoded key columns of an input row.
func (o *HashGroupOp) encodeKey(dst []byte, t Tuple) []byte {
	for _, col := range o.KeyColumns {
		dst = adm.EncodeKey(dst, t[col])
	}
	return dst
}

// keyOf projects an input row onto the key columns.
func (o *HashGroupOp) keyOf(t Tuple) Tuple {
	key := make(Tuple, len(o.KeyColumns))
	for i, col := range o.KeyColumns {
		key[i] = t[col]
	}
	return key
}

// ----------------------------------------------------------------------------
// Robust dynamic hybrid hash join (HybridHashJoinOp)
// ----------------------------------------------------------------------------

// Run implements Operator.
func (o *HybridHashJoinOp) Run(_ int, ins []*In, emit func(Tuple) bool) error {
	if len(ins) < 2 {
		return fmt.Errorf("hyracks: %s requires a build input on port 1", o.Label)
	}
	mem := o.Spill.NewInstance()
	defer mem.Close()
	err := o.join(mem, 0, inSource(ins[1]), inSource(ins[0]), emit)
	if err == errStopDemand {
		return nil
	}
	return err
}

// join is the operator's one body, run on the two inputs at level 0 and on
// each spilled (build, probe) run pair below. Join Build fills a spill table
// with the build side (a bag group-by on the join key). Join Probe looks
// each probe tuple up: matches in a resident partition stream out at once,
// tuples of a spilled partition are deferred to that partition's probe run.
// Each spilled pair is then joined by this same body one level down, or by
// the block fallback where the table says subdividing has stopped helping.
func (o *HybridHashJoinOp) join(mem *runfile.Instance, level int, build, probe tupleSource, emit func(Tuple) bool) error {
	buildKey := func(dst []byte, t Tuple) []byte { return joinKey(dst, o.BuildKey, t) }
	tbl := &spillTable{mem: mem, client: rowsClient(buildKey), level: level}
	defer tbl.abort()
	if err := tbl.fill(build); err != nil {
		return err
	}

	var deferred [spillFanout]*runfile.Writer
	defer func() {
		for _, w := range deferred {
			if w != nil {
				w.Abort()
			}
		}
	}()
	var scratch []byte
	for {
		t, more, err := probe()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		scratch = joinKey(scratch[:0], o.ProbeKey, t)
		pi, g, spilled := tbl.lookup(scratch)
		if !spilled {
			var matches []Tuple
			if g != nil {
				matches = g.rows
			}
			if !o.emitMatches(t, matches, emit) {
				return errStopDemand
			}
			continue
		}
		if deferred[pi] == nil {
			if deferred[pi], err = mem.NewRun(); err != nil {
				return err
			}
		}
		if err := deferred[pi].Write(t); err != nil {
			return err
		}
	}

	tbl.drain(nil) // the spilled pairs get the whole share
	return tbl.spilled(func(pi int, bRun *runfile.Run) error {
		if deferred[pi] == nil {
			return nil // no probe tuple reached this partition
		}
		pRun, err := deferred[pi].Finish()
		deferred[pi] = nil
		if err != nil {
			return err
		}
		defer pRun.Release()
		if level+1 >= spillMaxLevel || bRun.Tuples() == tbl.seen {
			// The cap, or this level subdivided nothing: every build tuple
			// landed in the one partition (the single-giant-key case), which
			// rehashing deeper cannot split either.
			return o.blockJoinRunPair(mem, bRun, pRun, emit)
		}
		return readRun(bRun, func(b tupleSource) error {
			return readRun(pRun, func(p tupleSource) error { return o.join(mem, level+1, b, p, emit) })
		})
	})
}

// emitMatches emits what a probe tuple yields: its one nest tuple, or one
// combined tuple per match. It reports false once demand is gone.
func (o *HybridHashJoinOp) emitMatches(t Tuple, matches []Tuple, emit func(Tuple) bool) bool {
	if o.Nest != nil {
		return emit(o.Nest(t, matches))
	}
	for _, b := range matches {
		if !emit(o.Combine(t, b)) {
			return false
		}
	}
	return true
}

// joinKey appends a tuple's encoded join key. A keyless join (nil extractor)
// has the one empty key, so every pair matches.
func joinKey(dst []byte, key func(Tuple) adm.Value, t Tuple) []byte {
	if key == nil {
		return dst
	}
	return adm.EncodeKey(dst, key(t))
}

// blockJoinRunPair is the robust fallback for a build run that rehashing
// cannot subdivide: the build run is taken in budget-sized chunks and the
// probe run re-streamed once per chunk, each pass being the join body over a
// table that no longer evicts. Memory stays bounded at one chunk regardless
// of key skew; the cost is extra probe passes, not failure. A nest join
// cannot chunk — a probe tuple would be emitted once per chunk — so it loads
// the build run whole: the lists it emits hold those rows anyway.
func (o *HybridHashJoinOp) blockJoinRunPair(mem *runfile.Instance, build, probe *runfile.Run, emit func(Tuple) bool) error {
	left := build.Tuples()
	return readRun(build, func(next tupleSource) error {
		if o.Nest != nil {
			return readRun(probe, func(p tupleSource) error {
				return o.join(mem, spillMaxLevel, next, p, emit)
			})
		}
		chunk := func() (Tuple, bool, error) {
			if left == 0 || !mem.Fits(1) {
				return nil, false, nil
			}
			left--
			return next()
		}
		for left > 0 {
			err := readRun(probe, func(p tupleSource) error {
				return o.join(mem, spillMaxLevel, chunk, p, emit)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}
