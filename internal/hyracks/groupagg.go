package hyracks

import (
	"fmt"
	"strings"

	"asterixdb/internal/adm"
	"asterixdb/internal/runfile"
)

// This file holds the one aggregate kernel of compiled jobs (AggAccum) and
// the spill table's fold client HashGroupOp builds on it: when the
// translator proves every consumer of a group-by's with-variables is an
// aggregate call (count/sum/avg/min/max, plain or sql-), the operator keeps
// one small accumulator per (group, aggregate) instead of the group's row
// bag. Memory per group drops from O(rows) to O(1), and the spill path
// writes accumulator tuples — merged on reload — rather than raw rows. Row
// bags are materialized only when a with-variable is genuinely used as a
// bag. The translator's scalar aggregates (local, global and unsplit
// AggregateOp folds) run the same kernel.

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

// foldClient is the spill table's fold client: a group's state is its key
// and one accumulator per aggregate, a spilled contribution is a (key,
// accumulator state) tuple, and reloading merges those tuples. Memory per
// group is O(1) whatever the group's row count, and no input row is ever
// materialized. reloaded selects the input form: raw operator rows (keys at
// KeyColumns, aggregates folded from their Col) or the client's own
// accumulator tuples (keys leading, accumulators merged from the rest).
type foldClient struct {
	o        *HashGroupOp
	fns      []AggFn
	reloaded bool
}

func (c *foldClient) key(dst []byte, t Tuple) []byte {
	if !c.reloaded {
		return c.o.encodeKey(dst, t)
	}
	for _, v := range t[:len(c.o.KeyColumns)] {
		dst = adm.EncodeKey(dst, v)
	}
	return dst
}

func (c *foldClient) size(_ Tuple, fresh bool) int64 {
	if !fresh {
		return 0
	}
	return int64(len(c.fns)) * accumMemSize
}

// absorb folds or merges the contribution; retained min/max values change
// the group's resident footprint, so the deltas feed the accounting.
func (c *foldClient) absorb(g *spillGroup, t Tuple) (int64, error) {
	nk := len(c.o.KeyColumns)
	if c.reloaded && len(t) != nk+len(c.fns)*accumCols {
		return 0, fmt.Errorf("hyracks: truncated accumulator tuple")
	}
	if g.accs == nil {
		g.accs = make([]AggAccum, len(c.fns))
		if c.reloaded {
			g.key = t[:nk:nk]
		} else {
			g.key = c.o.keyOf(t)
		}
	}
	var delta int64
	for i, ag := range c.o.Aggs {
		if !c.reloaded {
			delta += g.accs[i].Fold(c.fns[i], t[ag.Col])
			continue
		}
		acc, err := DecodeAccum(t[nk+i*accumCols:])
		if err != nil {
			return delta, err
		}
		delta += g.accs[i].Merge(c.fns[i], &acc)
	}
	return delta, nil
}

// contribution folds a raw row into a one-row accumulator tuple (merged with
// the rest on reload); accumulator tuples pass through unchanged.
func (c *foldClient) contribution(t Tuple) Tuple {
	if c.reloaded {
		return t
	}
	var g spillGroup
	c.absorb(&g, t) // only a reloaded tuple can fail to absorb
	return g.accTuple()
}

func (c *foldClient) state(g *spillGroup) []Tuple { return []Tuple{g.accTuple()} }

// accTuple serializes a fold group: key columns, then each accumulator.
func (g *spillGroup) accTuple() Tuple {
	t := append(make(Tuple, 0, len(g.key)+len(g.accs)*accumCols), g.key...)
	for i := range g.accs {
		t = g.accs[i].Encode(t)
	}
	return t
}

// finish produces a group's output tuple: key columns, then one finished
// value per aggregate.
func (c *foldClient) finish(g *spillGroup) (Tuple, error) {
	out := append(make(Tuple, 0, len(g.key)+len(g.accs)), g.key...)
	for i := range g.accs {
		out = append(out, g.accs[i].Finish(c.fns[i]))
	}
	return out, nil
}
