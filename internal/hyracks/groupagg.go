package hyracks

import (
	"fmt"
	"strings"

	"asterixdb/internal/adm"
	"asterixdb/internal/runfile"
)

// This file holds the one aggregation mechanism of compiled jobs: the
// aggregate kernel (aggAccum) and the spill table's fold client HashGroupOp
// runs on it. Every group keeps one accumulator per aggregate: count, sum,
// avg, min and max (plain or sql-) hold O(1) state, and listify — how a
// group-by hands a with-variable to an expression that uses it as a bag —
// holds the variable's items in arrival order, charged item by item. A spill
// writes accumulator tuples and reloading merges them; that same tuple is
// what a Local operator emits and a Global one merges, so a scalar aggregate
// is a keyless group-by split in two, Figure 6's local and global aggregate.

// GroupAgg describes one aggregate a HashGroupOp folds per group.
type GroupAgg struct {
	// Func is the aggregate's name, as ParseAggFn accepts it, or Listify.
	Func string
	// Col is the input tuple column the aggregate folds; a Global operator
	// reads the accumulators that follow the keys instead.
	Col int
}

// Listify collects its column's values, unknowns included, into an ordered
// list in arrival order. It is the group-by's bag of a with-variable, not an
// AQL builtin, so ParseAggFn does not accept it.
const Listify = "listify"

// AggFn is an aggregate function parsed once, so the per-value fold does not
// re-scan the name.
type AggFn struct {
	base string // count, sum, avg, min, max, listify
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
		if ag.Func == Listify {
			fns[i] = AggFn{base: Listify}
		} else {
			fns[i], _ = ParseAggFn(ag.Func)
		}
	}
	return fns
}

// aggAccum is the running state of one aggregate: every aggregate a compiled
// job computes is a sequence of fold and merge calls closed by finish. Its
// semantics mirror the expression evaluator's builtin aggregates exactly (the
// differential oracle evaluates those over the materialized bag): under AQL
// semantics an unknown item, or one that fails numeric conversion or
// comparison, poisons the result to null; under SQL semantics unknowns are
// skipped. One struct covers every function: count uses n; sum/avg use sum,
// n and bad; min/max use best and bad (best == nil means no comparable item
// yet); listify keeps its *adm.OrderedList in best and never poisons. The
// zero value is the empty aggregate.
type aggAccum struct {
	n    int64
	sum  float64
	best adm.Value
	bad  bool
}

// accumCols is the number of tuple columns one accumulator serializes to:
// {n, sum, best (nil when absent), bad}.
const accumCols = 4

// accumMemSize is the budget-accounting estimate for one accumulator's
// fixed part; a retained min/max value or listify item is accounted
// separately as it is (re)assigned.
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

// fold updates the accumulator with one input value. The returned delta is
// the change in resident bytes from any value the accumulator newly retains
// (min/max keep their best value alive, listify every item).
func (a *aggAccum) fold(fn AggFn, v adm.Value) int64 {
	switch fn.base {
	case "count":
		a.n++ // count counts every item, unknowns included
		return 0
	case Listify:
		return a.appendItems(v)
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

// appendItems adds items to the end of a listify accumulator's list,
// returning the resident bytes of the items and their list slots.
func (a *aggAccum) appendItems(items ...adm.Value) int64 {
	l, _ := a.best.(*adm.OrderedList)
	if l == nil {
		l = &adm.OrderedList{}
		a.best = l
	}
	l.Items = append(l.Items, items...)
	d := int64(16 * len(items))
	for _, it := range items {
		d += runfile.ValueMemSize(it)
	}
	return d
}

// better makes v the min/max accumulator's retained value if it beats the
// current one, returning the resident-byte delta.
func (a *aggAccum) better(fn AggFn, v adm.Value) int64 {
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

// merge combines another accumulator of the same aggregate into a (a
// partition's partial into the global aggregate, a spilled partition's
// accumulator run on reload), returning the resident-byte delta like fold.
// b's items follow a's, so merging in arrival order keeps a list in it.
func (a *aggAccum) merge(fn AggFn, b *aggAccum) int64 {
	switch fn.base {
	case "count":
		a.n += b.n
		return 0
	case Listify:
		if l, ok := b.best.(*adm.OrderedList); ok {
			return a.appendItems(l.Items...)
		}
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

// finish produces the aggregate's final value.
func (a *aggAccum) finish(fn AggFn) adm.Value {
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
	case Listify:
		if a.best == nil {
			return &adm.OrderedList{}
		}
		return a.best
	}
	return adm.Null{}
}

// encode appends the accumulator's serialized columns to a tuple: the form
// a partial aggregate travels in, to a run file or to the global aggregate.
func (a *aggAccum) encode(t Tuple) Tuple {
	return append(t, adm.Int64(a.n), adm.Double(a.sum), a.best, adm.Boolean(a.bad))
}

// decodeAccum reads one accumulator back from its serialized columns.
func decodeAccum(cols []adm.Value) (aggAccum, error) {
	if len(cols) < accumCols {
		return aggAccum{}, fmt.Errorf("hyracks: truncated accumulator tuple")
	}
	n, ok1 := cols[0].(adm.Int64)
	sum, ok2 := cols[1].(adm.Double)
	bad, ok3 := cols[3].(adm.Boolean)
	if !ok1 || !ok2 || !ok3 {
		return aggAccum{}, fmt.Errorf("hyracks: malformed accumulator tuple")
	}
	return aggAccum{n: int64(n), sum: float64(sum), best: cols[2], bad: bool(bad)}, nil
}

// foldClient is the spill table's fold client: a group's state is its key
// and one accumulator per aggregate, a spilled contribution is a (key,
// accumulator state) tuple, and reloading merges those tuples. No input row
// is ever kept: a group holds its accumulators, which only listify lets grow
// with the group. reloaded selects the input form: raw operator rows (keys at
// KeyColumns, aggregates folded from their Col) or accumulator tuples (keys
// leading, accumulators merged from the rest) — a run of the client's own
// contributions, or a Global operator's input.
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

// absorb folds or merges the contribution; retained min/max values and
// listify items change the group's resident footprint, so the deltas feed
// the accounting.
func (c *foldClient) absorb(g *spillGroup, t Tuple) (int64, error) {
	nk := len(c.o.KeyColumns)
	if c.reloaded && len(t) != nk+len(c.fns)*accumCols {
		return 0, fmt.Errorf("hyracks: truncated accumulator tuple")
	}
	if g.accs == nil {
		g.accs = make([]aggAccum, len(c.fns))
		if c.reloaded {
			g.key = t[:nk:nk]
		} else {
			g.key = c.o.keyOf(t)
		}
	}
	var delta int64
	for i, ag := range c.o.Aggs {
		if !c.reloaded {
			delta += g.accs[i].fold(c.fns[i], t[ag.Col])
			continue
		}
		acc, err := decodeAccum(t[nk+i*accumCols:])
		if err != nil {
			return delta, err
		}
		delta += g.accs[i].merge(c.fns[i], &acc)
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

// accTuple serializes a fold group: key columns, then each accumulator. It
// is a Local operator's output tuple too.
func (g *spillGroup) accTuple() Tuple {
	t := append(make(Tuple, 0, len(g.key)+len(g.accs)*accumCols), g.key...)
	for i := range g.accs {
		t = g.accs[i].encode(t)
	}
	return t
}

// finish produces a group's output tuple: key columns, then one finished
// value per aggregate.
func (c *foldClient) finish(g *spillGroup) Tuple {
	out := append(make(Tuple, 0, len(g.key)+len(g.accs)), g.key...)
	for i := range g.accs {
		out = append(out, g.accs[i].finish(c.fns[i]))
	}
	return out
}
