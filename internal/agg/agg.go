// Package agg is the aggregate kernel: the one definition of what count,
// sum, avg, min and max (plain or sql-) return, as a fold/merge/finish
// accumulator. Every aggregate any binary computes runs through it: a
// compiled job's group-bys and Figure 6's local and global aggregate
// (hyracks' fold client), and the expression builtins over a list
// (internal/expr), which fold the list's items and finish. The tests check
// it against the list-at-a-time reference in internal/expr/oracle, which no
// binary links.
//
// Under AQL semantics an unknown item, or one that fails numeric conversion
// or comparison, poisons the result to null; under SQL semantics unknowns
// are skipped. count counts every item, unknowns included; sum, avg, min and
// max of no (counted) item are null.
package agg

import (
	"fmt"
	"strings"

	"asterixdb/internal/adm"
	"asterixdb/internal/runfile"
)

// Listify collects its column's values, unknowns included, into an ordered
// list in arrival order. It is the group-by's bag of a with-variable, not an
// AQL builtin, so Parse does not accept it.
const Listify = "listify"

// Fn is an aggregate function parsed once, so the per-value fold does not
// re-scan the name.
type Fn struct {
	base string // count, sum, avg, min, max, listify
	sql  bool   // sql- prefix: skip unknowns instead of poisoning
}

// Parse resolves the name of an aggregate builtin with a one-pass
// accumulator — count, sum, avg, min or max, optionally with the "sql-"
// prefix for unknown-skipping semantics — in any letter case, as every
// builtin is looked up. ok is false for any other name.
func Parse(name string) (fn Fn, ok bool) {
	name = strings.ToLower(name)
	fn = Fn{base: strings.TrimPrefix(name, "sql-"), sql: strings.HasPrefix(name, "sql-")}
	switch fn.base {
	case "count", "sum", "avg", "min", "max":
		return fn, true
	}
	return Fn{}, false
}

// Name is the aggregate's canonical, lower-case name: the one plans and
// jobs carry.
func (fn Fn) Name() string {
	if fn.sql {
		return "sql-" + fn.base
	}
	return fn.base
}

// Resolve returns the aggregate a job folds under name: Listify, or a name
// Parse accepts.
func Resolve(name string) Fn {
	if name == Listify {
		return Fn{base: Listify}
	}
	fn, _ := Parse(name)
	return fn
}

// Accum is the running state of one aggregate: every aggregate is a sequence
// of Fold and Merge calls closed by Finish. One struct covers every
// function: count uses n; sum/avg use sum, n and bad; min/max use best and
// bad (best == nil means no comparable item yet); listify keeps its
// *adm.OrderedList in best and never poisons. The zero value is the empty
// aggregate.
type Accum struct {
	n    int64
	sum  float64
	best adm.Value
	bad  bool
}

// Cols is the number of tuple columns one accumulator serializes to:
// {n, sum, best (nil when absent), bad}.
const Cols = 4

// MemSize is the budget-accounting estimate for one accumulator's fixed
// part; a retained min/max value or listify item is accounted separately as
// it is (re)assigned.
const MemSize = 48

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
// (min/max keep their best value alive, listify every item).
func (a *Accum) Fold(fn Fn, v adm.Value) int64 {
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
func (a *Accum) appendItems(items ...adm.Value) int64 {
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
func (a *Accum) better(fn Fn, v adm.Value) int64 {
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
// b's items follow a's, so merging in arrival order keeps a list in it.
func (a *Accum) Merge(fn Fn, b *Accum) int64 {
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

// Finish produces the aggregate's final value.
func (a *Accum) Finish(fn Fn) adm.Value {
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

// Encode appends the accumulator's serialized columns to a tuple: the form
// a partial aggregate travels in, to a run file or to the global aggregate.
func (a *Accum) Encode(t []adm.Value) []adm.Value {
	return append(t, adm.Int64(a.n), adm.Double(a.sum), a.best, adm.Boolean(a.bad))
}

// Decode reads one accumulator back from its serialized columns.
func Decode(cols []adm.Value) (Accum, error) {
	if len(cols) < Cols {
		return Accum{}, fmt.Errorf("agg: truncated accumulator")
	}
	n, ok1 := cols[0].(adm.Int64)
	sum, ok2 := cols[1].(adm.Double)
	bad, ok3 := cols[3].(adm.Boolean)
	if !ok1 || !ok2 || !ok3 {
		return Accum{}, fmt.Errorf("agg: malformed accumulator")
	}
	return Accum{n: int64(n), sum: float64(sum), best: cols[2], bad: bool(bad)}, nil
}
