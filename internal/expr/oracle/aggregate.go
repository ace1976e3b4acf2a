package oracle

import "asterixdb/internal/adm"

// aggregates are the reference for the aggregate builtins: each computes its
// result over the whole list at once, independently of the fold/merge/finish
// kernel (package agg) that expr's builtins and the jobs run, so the tests
// that compare the two check the kernel. An aggregate with AQL semantics
// returns null on an unknown item; its sql- variant skips unknowns.
var aggregates = map[string]func(args []adm.Value) adm.Value{
	"count":     aggCount,
	"sql-count": aggCount,
	"sum":       func(a []adm.Value) adm.Value { return aggSum(a, false) },
	"sql-sum":   func(a []adm.Value) adm.Value { return aggSum(a, true) },
	"avg":       func(a []adm.Value) adm.Value { return aggAvg(a, false) },
	"sql-avg":   func(a []adm.Value) adm.Value { return aggAvg(a, true) },
	"min":       func(a []adm.Value) adm.Value { return aggMinMax(a, false, false) },
	"sql-min":   func(a []adm.Value) adm.Value { return aggMinMax(a, false, true) },
	"max":       func(a []adm.Value) adm.Value { return aggMinMax(a, true, false) },
	"sql-max":   func(a []adm.Value) adm.Value { return aggMinMax(a, true, true) },
}

// aggItems is what an aggregate call aggregates: a list argument's items,
// otherwise the arguments themselves.
func aggItems(args []adm.Value) []adm.Value {
	if len(args) == 0 {
		return nil
	}
	switch l := args[0].(type) {
	case *adm.OrderedList:
		return l.Items
	case *adm.UnorderedList:
		return l.Items
	}
	return args
}

func aggCount(args []adm.Value) adm.Value {
	return adm.Int64(len(aggItems(args)))
}

func aggSum(args []adm.Value, sqlSemantics bool) adm.Value {
	sum, n, ok := numericSum(aggItems(args), sqlSemantics)
	if !ok || n == 0 {
		return adm.Null{}
	}
	return adm.Double(sum)
}

func aggAvg(args []adm.Value, sqlSemantics bool) adm.Value {
	sum, n, ok := numericSum(aggItems(args), sqlSemantics)
	if !ok || n == 0 {
		return adm.Null{}
	}
	return adm.Double(sum / float64(n))
}

// numericSum adds the items as doubles, skipping unknowns under SQL
// semantics; ok is false when an unknown (AQL semantics) or a non-numeric
// item makes the result null.
func numericSum(items []adm.Value, sqlSemantics bool) (sum float64, n int, ok bool) {
	for _, it := range items {
		if adm.IsUnknown(it) {
			if sqlSemantics {
				continue
			}
			return 0, 0, false
		}
		d, ok := adm.NumericAsDouble(it)
		if !ok {
			return 0, 0, false
		}
		sum += d
		n++
	}
	return sum, n, true
}

func aggMinMax(args []adm.Value, max, sqlSemantics bool) adm.Value {
	var best adm.Value
	for _, it := range aggItems(args) {
		if adm.IsUnknown(it) {
			if sqlSemantics {
				continue
			}
			return adm.Null{}
		}
		if best == nil {
			best = it
			continue
		}
		c, err := adm.Compare(it, best)
		if err != nil {
			return adm.Null{}
		}
		if (max && c > 0) || (!max && c < 0) {
			best = it
		}
	}
	if best == nil {
		return adm.Null{}
	}
	return best
}
