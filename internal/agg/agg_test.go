package agg_test

import (
	"slices"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/agg"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/expr/oracle"
)

// fuzzItems decodes a fuzz input: the first byte picks 1–4 partials and the
// next ones where they are cut, every byte after that is one item. An item
// is an int of either width, a dyadic double (so no summation order can
// show), a string, a boolean, null or missing.
func fuzzItems(data []byte) (items []adm.Value, partials [][]adm.Value) {
	if len(data) == 0 {
		return nil, [][]adm.Value{nil}
	}
	k := int(data[0]%4) + 1
	data = data[1:]
	cutBytes := data[:min(k-1, len(data))]
	for _, b := range data[len(cutBytes):min(len(data), 64)] {
		v := int(b >> 3)
		switch b % 8 {
		case 0, 1:
			items = append(items, adm.Int64(v-16))
		case 2:
			items = append(items, adm.Int32(v-16))
		case 3, 4:
			items = append(items, adm.Double(float64(v-16)/4))
		case 5:
			items = append(items, adm.String([]string{"a", "b", "pear", ""}[v%4]))
		case 6:
			items = append(items, adm.Boolean(v%2 == 1))
		case 7:
			if v%2 == 0 {
				items = append(items, adm.Null{})
			} else {
				items = append(items, adm.Missing{})
			}
		}
	}
	cuts := []int{0, len(items)}
	for _, b := range cutBytes {
		cuts = append(cuts, int(b)%(len(items)+1))
	}
	slices.Sort(cuts)
	for i := 1; i < len(cuts); i++ {
		partials = append(partials, items[cuts[i-1]:cuts[i]])
	}
	return items, partials
}

// viaPartials folds each partial into its own accumulator, sends it through
// the tuple codec a spill run and the local-to-global edge use, and merges
// the decoded accumulators in order.
func viaPartials(t *testing.T, fn agg.Fn, partials [][]adm.Value) adm.Value {
	var global agg.Accum
	for _, part := range partials {
		var local agg.Accum
		for _, v := range part {
			local.Fold(fn, v)
		}
		raw, err := adm.AppendTuple(nil, local.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		cols, _, err := adm.DecodeTuple(raw)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := agg.Decode(cols)
		if err != nil {
			t.Fatal(err)
		}
		global.Merge(fn, &acc)
	}
	return global.Finish(fn)
}

// FuzzAggKernel: for every aggregate, folding all items then finishing,
// folding each partial and merging the partials' decoded accumulators, and
// the oracle's list-at-a-time reference all give the same value. listify
// gives the items in order both ways.
func FuzzAggKernel(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0},
		{1, 2, 0x40, 0x41, 0x88},       // ints in two partials
		{2, 1, 3, 0x43, 0x24, 0x70},    // doubles and an int in three, one empty
		{3, 1, 2, 3, 0x47, 0x08, 0x4f}, // null, an int and missing in four
		{1, 1, 0x05, 0x0d, 0x15},       // strings
		{1, 1, 0x08, 0x05},             // an int and a string
		{2, 0, 4, 0x06, 0x0e, 0x08},    // booleans, then an int
		{0, 0x08, 0x0c, 0x10},          // ints and a double in one partial
		{1, 1, 0x88, 0xa3},             // 1 and 1.0 in two: min and max keep the first
	} {
		f.Add(seed)
	}
	ctx := &oracle.Context{Context: expr.NewContext()}
	f.Fuzz(func(t *testing.T, data []byte) {
		items, partials := fuzzItems(data)
		list := &adm.OrderedList{Items: items}
		for _, base := range []string{"count", "sum", "avg", "min", "max"} {
			for _, name := range []string{base, "sql-" + base} {
				fn, ok := agg.Parse(name)
				if !ok {
					t.Fatalf("Parse(%q) refused", name)
				}
				var whole agg.Accum
				for _, v := range items {
					whole.Fold(fn, v)
				}
				folded := whole.Finish(fn)
				want, err := oracle.Eval(ctx, oracle.Env{}, &aql.CallExpr{Func: name, Args: []aql.Expr{&aql.Literal{Value: list}}})
				if err != nil {
					t.Fatal(err)
				}
				merged := viaPartials(t, fn, partials)
				if folded.String() != want.String() || merged.String() != want.String() {
					t.Fatalf("%s(%s) in %d partials: folded %s, merged %s, oracle %s", name, list, len(partials), folded, merged, want)
				}
			}
		}
		listify := agg.Resolve(agg.Listify)
		var whole agg.Accum
		for _, v := range items {
			whole.Fold(listify, v)
		}
		folded, merged := whole.Finish(listify), viaPartials(t, listify, partials)
		if folded.String() != list.String() || merged.String() != list.String() {
			t.Fatalf("listify(%s) in %d partials: folded %s, merged %s", list, len(partials), folded, merged)
		}
	})
}

// TestParse: the ten aggregate builtins parse in any letter case to their
// lower-case name, listify and other names do not.
func TestParse(t *testing.T) {
	for _, name := range []string{"count", "sql-count", "sum", "sql-sum", "avg", "sql-avg", "min", "sql-min", "max", "sql-max"} {
		for _, spelled := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			if fn, ok := agg.Parse(spelled); !ok || fn.Name() != name {
				t.Errorf("Parse(%q) = %q, %v; want %q", spelled, fn.Name(), ok, name)
			}
		}
	}
	for _, name := range []string{agg.Listify, "sql-listify", "sql-", "median", "COUNTS", ""} {
		if _, ok := agg.Parse(name); ok {
			t.Errorf("Parse(%q) accepted", name)
		}
	}
}
