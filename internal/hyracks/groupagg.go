package hyracks

import (
	"fmt"

	"asterixdb/internal/adm"
	"asterixdb/internal/agg"
)

// This file holds the spill table's fold client, HashGroupOp's one
// aggregation mechanism, on the aggregate kernel (package agg). Every group
// keeps one agg.Accum per aggregate: count, sum, avg, min and max (plain or
// sql-) hold O(1) state, and listify — how a group-by hands a with-variable
// to an expression that uses it as a bag — holds the variable's items in
// arrival order, charged item by item. A spill writes accumulator tuples and
// reloading merges them; that same tuple is what a Local operator emits and
// a Global one merges, so a scalar aggregate is a keyless group-by split in
// two, Figure 6's local and global aggregate.

// GroupAgg describes one aggregate a HashGroupOp folds per group.
type GroupAgg struct {
	// Func is the aggregate's name, as agg.Parse accepts it, or agg.Listify.
	Func string
	// Col is the input tuple column the aggregate folds; a Global operator
	// reads the accumulators that follow the keys instead.
	Col int
}

func parseAggFns(aggs []GroupAgg) []agg.Fn {
	fns := make([]agg.Fn, len(aggs))
	for i, ag := range aggs {
		fns[i] = agg.Resolve(ag.Func)
	}
	return fns
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
	fns      []agg.Fn
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
	return int64(len(c.fns)) * agg.MemSize
}

// absorb folds or merges the contribution; retained min/max values and
// listify items change the group's resident footprint, so the deltas feed
// the accounting.
func (c *foldClient) absorb(g *spillGroup, t Tuple) (int64, error) {
	nk := len(c.o.KeyColumns)
	if c.reloaded && len(t) != nk+len(c.fns)*agg.Cols {
		return 0, fmt.Errorf("hyracks: truncated accumulator tuple")
	}
	if g.accs == nil {
		g.accs = make([]agg.Accum, len(c.fns))
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
		acc, err := agg.Decode(t[nk+i*agg.Cols:])
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

// accTuple serializes a fold group: key columns, then each accumulator. It
// is a Local operator's output tuple too.
func (g *spillGroup) accTuple() Tuple {
	t := append(make(Tuple, 0, len(g.key)+len(g.accs)*agg.Cols), g.key...)
	for i := range g.accs {
		t = g.accs[i].Encode(t)
	}
	return t
}

// finish produces a group's output tuple: key columns, then one finished
// value per aggregate.
func (c *foldClient) finish(g *spillGroup) Tuple {
	out := append(make(Tuple, 0, len(g.key)+len(g.accs)), g.key...)
	for i := range g.accs {
		out = append(out, g.accs[i].Finish(c.fns[i]))
	}
	return out
}
