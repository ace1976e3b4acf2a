package hyracks

import (
	"fmt"
	"io"
	"strings"

	"asterixdb/internal/adm"
	"asterixdb/internal/runfile"
)

// This file holds the one aggregate kernel of compiled jobs (AggAccum) and
// the fold-as-you-go aggregation HashGroupOp builds on it: when the
// translator proves every consumer of a group-by's with-variables is an
// aggregate call (count/sum/avg/min/max, plain or sql-), the operator keeps
// one small accumulator per (group, aggregate) instead of materializing the
// group's row bag. Memory per group drops from O(rows) to O(1), and the
// spill path writes accumulator tuples — merged on reload — rather than raw
// rows. Row bags are materialized only when a with-variable is genuinely
// used as a bag. The translator's scalar aggregates (local, global and
// unsplit AggregateOp folds) run the same kernel.

// GroupAgg describes one incremental aggregate computed by a HashGroupOp
// running in fold-as-you-go mode.
type GroupAgg struct {
	// Func is the aggregate's name, as ParseAggFn accepts it.
	Func string
	// Col is the input tuple column the aggregate folds.
	Col int
}

// AggFn is an aggregate function parsed once, so the per-value fold does not
// re-scan the name.
type AggFn struct {
	base string // count, sum, avg, min, max
	sql  bool   // sql- prefix: skip unknowns instead of poisoning
}

// ParseAggFn resolves the name of an aggregate builtin with a one-pass
// accumulator — count, sum, avg, min or max, optionally with the "sql-" prefix
// for unknown-skipping semantics. ok is false for any other name.
func ParseAggFn(name string) (fn AggFn, ok bool) {
	fn = AggFn{base: strings.TrimPrefix(name, "sql-"), sql: strings.HasPrefix(name, "sql-")}
	switch fn.base {
	case "count", "sum", "avg", "min", "max":
		return fn, true
	}
	return AggFn{}, false
}

func parseAggFns(aggs []GroupAgg) []AggFn {
	fns := make([]AggFn, len(aggs))
	for i, ag := range aggs {
		fns[i], _ = ParseAggFn(ag.Func)
	}
	return fns
}

// AggAccum is the running state of one aggregate: every aggregate a compiled
// job computes — per group in HashGroupOp, per partition and globally in the
// translator's AggregateOp folds — is a sequence of Fold and Merge calls
// closed by Finish. Its semantics mirror the expression evaluator's builtin
// aggregates exactly (the differential oracle evaluates those over the
// materialized bag): under AQL semantics an unknown item, or one that fails
// numeric conversion or comparison, poisons the result to null; under SQL
// semantics unknowns are skipped. One struct covers all five functions: count
// uses n; sum/avg use sum, n and bad; min/max use best and bad (best == nil
// means no comparable item yet). The zero value is the empty aggregate.
type AggAccum struct {
	n    int64
	sum  float64
	best adm.Value
	bad  bool
}

// accumCols is the number of tuple columns one accumulator serializes to:
// {n, sum, best (nil when absent), bad}.
const accumCols = 4

// accumMemSize is the budget-accounting estimate for one accumulator's
// fixed part; a retained min/max value is accounted separately as it is
// (re)assigned.
const accumMemSize = 48

// bestDelta is the budget-accounting change from replacing an accumulator's
// retained value.
func bestDelta(old, new adm.Value) int64 {
	var d int64
	if new != nil {
		d += runfile.ValueMemSize(new)
	}
	if old != nil {
		d -= runfile.ValueMemSize(old)
	}
	return d
}

// Fold updates the accumulator with one input value. The returned delta is
// the change in resident bytes from any value the accumulator newly retains
// (min/max keep their best value alive).
func (a *AggAccum) Fold(fn AggFn, v adm.Value) int64 {
	if fn.base == "count" {
		a.n++ // count counts every item, unknowns included
		return 0
	}
	if a.bad {
		return 0
	}
	if v == nil || adm.IsUnknown(v) {
		if !fn.sql {
			a.bad = true // AQL semantics: an unknown item poisons the result
		}
		return 0
	}
	if fn.base == "sum" || fn.base == "avg" {
		d, ok := adm.NumericAsDouble(v)
		if !ok {
			a.bad = true
			return 0
		}
		a.sum += d
		a.n++
		return 0
	}
	return a.better(fn, v)
}

// better makes v the min/max accumulator's retained value if it beats the
// current one, returning the resident-byte delta.
func (a *AggAccum) better(fn AggFn, v adm.Value) int64 {
	if a.best == nil {
		a.best = v
		return bestDelta(nil, v)
	}
	c, err := adm.Compare(v, a.best)
	if err != nil {
		a.bad = true
		return 0
	}
	if (fn.base == "max" && c > 0) || (fn.base == "min" && c < 0) {
		old := a.best
		a.best = v
		return bestDelta(old, v)
	}
	return 0
}

// Merge combines another accumulator of the same aggregate into a (a
// partition's partial into the global aggregate, a spilled partition's
// accumulator run on reload), returning the resident-byte delta like Fold.
func (a *AggAccum) Merge(fn AggFn, b *AggAccum) int64 {
	if fn.base == "count" {
		a.n += b.n
		return 0
	}
	if b.bad {
		a.bad = true
	}
	if a.bad {
		return 0
	}
	if fn.base == "sum" || fn.base == "avg" {
		a.sum += b.sum
		a.n += b.n
		return 0
	}
	if b.best == nil {
		return 0
	}
	return a.better(fn, b.best)
}

// Finish produces the aggregate's final value.
func (a *AggAccum) Finish(fn AggFn) adm.Value {
	switch fn.base {
	case "count":
		return adm.Int64(a.n)
	case "sum":
		if a.bad || a.n == 0 {
			return adm.Null{}
		}
		return adm.Double(a.sum)
	case "avg":
		if a.bad || a.n == 0 {
			return adm.Null{}
		}
		return adm.Double(a.sum / float64(a.n))
	case "min", "max":
		if a.bad || a.best == nil {
			return adm.Null{}
		}
		return a.best
	}
	return adm.Null{}
}

// Encode appends the accumulator's serialized columns to a tuple: the form
// a partial aggregate travels in, to a run file or to the global aggregate.
func (a *AggAccum) Encode(t Tuple) Tuple {
	return append(t, adm.Int64(a.n), adm.Double(a.sum), a.best, adm.Boolean(a.bad))
}

// DecodeAccum reads one accumulator back from its serialized columns.
func DecodeAccum(cols []adm.Value) (AggAccum, error) {
	if len(cols) < accumCols {
		return AggAccum{}, fmt.Errorf("hyracks: truncated accumulator tuple")
	}
	n, ok1 := cols[0].(adm.Int64)
	sum, ok2 := cols[1].(adm.Double)
	bad, ok3 := cols[3].(adm.Boolean)
	if !ok1 || !ok2 || !ok3 {
		return AggAccum{}, fmt.Errorf("hyracks: malformed accumulator tuple")
	}
	return AggAccum{n: int64(n), sum: float64(sum), best: cols[2], bad: bool(bad)}, nil
}

// aggGroup is one group's key and accumulators.
type aggGroup struct {
	key  Tuple
	accs []AggAccum
}

// aggPartition is one intra-instance hash partition of the incremental group
// table: resident groups until chosen as a spill victim, an accumulator run
// file after.
type aggPartition struct {
	groups map[string]*aggGroup
	order  []string
	bytes  int64
	w      *runfile.Writer
}

// spillContribution routes one stream tuple into an already-spilled
// partition's run: accumulator tuples pass through unchanged, raw rows fold
// into a one-row accumulator tuple first (merged with the rest on reload).
func (o *HashGroupOp) spillContribution(w *runfile.Writer, t Tuple, nk int, fns []AggFn, fromAcc bool) error {
	out := make(Tuple, 0, nk+len(o.Aggs)*accumCols)
	if fromAcc {
		out = append(out, t...)
	} else {
		for _, col := range o.KeyColumns {
			out = append(out, t[col])
		}
		for i, ag := range o.Aggs {
			var acc AggAccum
			acc.Fold(fns[i], t[ag.Col])
			out = acc.Encode(out)
		}
	}
	return w.Write(out)
}

// aggStream is HashGroupOp's fold-as-you-go table. It consumes a stream of
// either raw input rows (fromAcc false; keys at o.KeyColumns, aggregates
// folded from their Col) or reloaded accumulator tuples (fromAcc true; keys
// at columns [0, nk), accumulators merged from the trailing columns). Under
// memory pressure (many distinct groups) the largest partition's accumulators
// spill as (key, state) tuples and are merged on reload, recursively
// repartitioned at the next level-salted hash if a partition alone still
// exceeds the budget. No input row is ever materialized.
func (o *HashGroupOp) aggStream(mem *runfile.Instance, level int, next func() (Tuple, bool, error), fromAcc bool, emit func(Tuple) bool) error {
	nk := len(o.KeyColumns)
	fns := parseAggFns(o.Aggs)
	parts := make([]*aggPartition, spillFanout)
	for i := range parts {
		parts[i] = &aggPartition{groups: map[string]*aggGroup{}}
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
			g := pt.groups[ks]
			t := make(Tuple, 0, nk+len(o.Aggs)*accumCols)
			t = append(t, g.key...)
			for i := range g.accs {
				t = g.accs[i].Encode(t)
			}
			if err := w.Write(t); err != nil {
				w.Abort()
				return false, err
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
		// Key columns: the operator's KeyColumns for raw rows, the leading
		// columns for reloaded accumulator tuples.
		scratch = scratch[:0]
		var key Tuple
		if fromAcc {
			key = t[:nk]
			for _, v := range key {
				scratch = adm.EncodeKey(scratch, v)
			}
		} else {
			for _, col := range o.KeyColumns {
				scratch = adm.EncodeKey(scratch, t[col])
			}
		}
		pt := parts[spillHash(level, scratch)]
		if pt.w != nil {
			if err := o.spillContribution(pt.w, t, nk, fns, fromAcc); err != nil {
				return err
			}
			continue
		}
		ks := string(scratch)
		g := pt.groups[ks]
		if g == nil {
			sz := int64(64+len(ks)) + int64(len(o.Aggs))*accumMemSize
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
					// This partition just became the victim; re-route the
					// tuple to its run.
					if err := o.spillContribution(pt.w, t, nk, fns, fromAcc); err != nil {
						return err
					}
					continue
				}
			}
			key2 := make(Tuple, nk)
			if fromAcc {
				copy(key2, t[:nk])
			} else {
				for i, col := range o.KeyColumns {
					key2[i] = t[col]
				}
			}
			g = &aggGroup{key: key2, accs: make([]AggAccum, len(o.Aggs))}
			pt.groups[ks] = g
			pt.order = append(pt.order, ks)
			mem.Add(sz)
			pt.bytes += sz
		}
		// Fold or merge the contribution; retained min/max values change the
		// group's resident footprint, so the deltas feed the accounting.
		var delta int64
		if fromAcc {
			pos := nk
			for i := range o.Aggs {
				acc, err := DecodeAccum(t[pos : pos+accumCols])
				if err != nil {
					return err
				}
				delta += g.accs[i].Merge(fns[i], &acc)
				pos += accumCols
			}
		} else {
			for i, ag := range o.Aggs {
				delta += g.accs[i].Fold(fns[i], t[ag.Col])
			}
		}
		if delta != 0 {
			mem.Add(delta)
			pt.bytes += delta
		}
	}

	// Emit resident partitions first (releasing their memory), then merge
	// the spilled partitions' accumulator runs with the freed budget.
	for _, pt := range parts {
		if pt.w != nil {
			continue
		}
		for _, ks := range pt.order {
			g := pt.groups[ks]
			out := make(Tuple, 0, nk+len(o.Aggs))
			out = append(out, g.key...)
			for i := range o.Aggs {
				out = append(out, g.accs[i].Finish(fns[i]))
			}
			if !emit(out) {
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
		err = o.aggStream(mem, level+1, func() (Tuple, bool, error) {
			cols, err := rd.Next()
			if err == io.EOF {
				return nil, false, nil
			}
			if err != nil {
				return nil, false, err
			}
			return Tuple(cols), true, nil
		}, true, emit)
		rd.Close()
		run.Release()
		if err != nil {
			return err
		}
	}
	return nil
}
