package algebra

import (
	"fmt"

	"asterixdb/internal/aql"
)

// NestDatasets plans every dataset reference that sits inside an expression
// as a nest join, so every dataset a query reads is an operator in its job.
// A nest join emits each tuple of its probe input exactly once, with the
// list of its matching rows of the dataset bound to a fresh variable; the
// reference becomes that variable, and the rest of the nested FLWOR is
// evaluated over the list. translator.Compile runs it after Build and before
// Optimize, so no access-path rule ever sees a probe that holds a dataset.
//
// The join goes directly below the node whose expression held the reference
// — select, assign, unnest, subplan source, group-by keys, order terms — and
// for the query's return expression below order and limit, at the top of
// the pipeline. A select keeps its dataset-free conjuncts below the join, so
// the join and access-path rules still see them over their inputs. An
// input-less node joins the one empty tuple (a nil probe input), and a
// subplan source becomes an unnest over its join.
//
// The join is keyed when the reference is the source of a nested
// `for $m in dataset D` without a positional variable, and a where conjunct
// a = b of that FLWOR, before any group-by or limit and with $m not rebound
// in between, has a whose free variables are exactly $m and b whose free
// variables are all bound by the node's input. It then hashes on b (probe)
// and a (build) and each list holds only the matches; every conjunct stays
// in the nested FLWOR, so keying only narrows the list. Any other reference
// is keyless: the build side is broadcast and the list is the whole dataset,
// in the positional scan's order when the reference is a positional
// for-source, so positions are the oracle's. A node over an order-by
// keeps its join keyless, since only the broadcast join keeps the order.
//
// Variables are named #nest-0, #nest-1, ... in walk order, so every node of
// a cluster compiles the identical plan. limit and offset are folded before
// any tuple exists, so a dataset there is an error.
func NestDatasets(plan *Plan) (*Plan, error) {
	r := &nester{}
	root, err := r.node(plan.Root)
	if err != nil {
		return nil, err
	}
	query := plan.Query
	// The return expression is evaluated above order and limit; its joins
	// go below them, where the tuples still flow in parallel.
	top := root
	for len(top.Inputs) == 1 && (top.Inputs[0].Kind == OpOrder || top.Inputs[0].Kind == OpLimit) {
		top = top.Inputs[0]
	}
	var in *Node
	if len(top.Inputs) == 1 {
		in = top.Inputs[0]
	}
	ret, in, err := r.rewrite(query.Return, in)
	if err != nil {
		return nil, err
	}
	if ret != query.Return {
		top.Inputs = []*Node{in}
		query = &aql.FLWORExpr{Clauses: query.Clauses, Return: ret}
	}
	return &Plan{Root: root, Query: query}, nil
}

// nester numbers the nest variables of one plan.
type nester struct{ next int }

// node rewrites the subtree bottom-up and returns what replaces n.
func (r *nester) node(n *Node) (*Node, error) {
	if n == nil {
		return nil, nil
	}
	for i, in := range n.Inputs {
		out, err := r.node(in)
		if err != nil {
			return nil, err
		}
		n.Inputs[i] = out
	}
	var in *Node
	if len(n.Inputs) == 1 {
		in = n.Inputs[0]
	}
	var err error
	switch n.Kind {
	case OpLimit:
		return n, limitReads(n.LimitExpr, n.OffsetExpr)
	case OpSelect:
		var plain, reads []aql.Expr
		for _, c := range splitConjuncts(n.Condition) {
			if datasetIn(c) != nil {
				reads = append(reads, c)
			} else {
				plain = append(plain, c)
			}
		}
		if len(reads) == 0 {
			return n, nil
		}
		if len(plain) > 0 {
			in = &Node{Kind: OpSelect, Inputs: []*Node{in}, Condition: joinConjuncts(plain)}
		}
		cond, in, err := r.rewrite(joinConjuncts(reads), in)
		if err != nil {
			return nil, err
		}
		return &Node{Kind: OpSelect, Inputs: []*Node{in}, Condition: cond}, nil
	case OpAssign, OpUnnest, OpSubplan:
		exprs := append([]aql.Expr(nil), n.Exprs...)
		for i := range exprs {
			if exprs[i], in, err = r.rewrite(exprs[i], in); err != nil {
				return nil, err
			}
		}
		n.Exprs = exprs
	case OpGroupBy:
		keys := append([]aql.GroupKey(nil), n.GroupKeys...)
		for i := range keys {
			if keys[i].Expr, in, err = r.rewrite(keys[i].Expr, in); err != nil {
				return nil, err
			}
		}
		n.GroupKeys = keys
	case OpOrder:
		terms := append([]aql.OrderTerm(nil), n.OrderTerms...)
		for i := range terms {
			if terms[i].Expr, in, err = r.rewrite(terms[i].Expr, in); err != nil {
				return nil, err
			}
		}
		n.OrderTerms = terms
	default:
		return n, nil
	}
	if in == nil || (len(n.Inputs) == 1 && in == n.Inputs[0]) {
		return n, nil
	}
	if n.Kind == OpSubplan {
		// A source evaluated once is an unnest over the one probe tuple.
		return &Node{Kind: OpUnnest, Inputs: []*Node{in}, Variable: n.Variable, PosVar: n.PosVar, Exprs: n.Exprs}, nil
	}
	n.Inputs = []*Node{in}
	return n, nil
}

// rewrite replaces every dataset reference in e by a fresh nest variable
// and stacks the nest join binding it on in, which it returns.
func (r *nester) rewrite(e aql.Expr, in *Node) (aql.Expr, *Node, error) {
	if datasetIn(e) == nil {
		return e, in, nil
	}
	inputVars := boundVars(in)
	keyless := ordered(in)
	keys := map[*aql.DatasetRef]nestKey{}
	positional := map[*aql.DatasetRef]bool{}
	var err error
	out := aql.Rewrite(e, func(x aql.Expr, sc *aql.Scope) aql.Expr {
		switch x := x.(type) {
		case *aql.FLWORExpr:
			for i, c := range x.Clauses {
				if l, ok := c.(*aql.LimitClause); ok && err == nil {
					err = limitReads(l.Limit, l.Offset)
				}
				f, ok := c.(*aql.ForClause)
				if !ok {
					continue
				}
				ref, ok := f.Source.(*aql.DatasetRef)
				if !ok {
					continue
				}
				if f.PosVar != "" {
					positional[ref] = true
				} else if k, ok := keyOf(x, i, sc, inputVars); ok && !keyless {
					keys[ref] = k
				}
			}
		case *aql.DatasetRef:
			name := fmt.Sprintf("#nest-%d", r.next)
			r.next++
			scan := &Node{Kind: OpScan, Dataset: x.Name, Dataverse: x.Dataverse, Variable: name}
			if positional[x] {
				scan.PosVar = name + "-at"
			}
			join := &Node{Kind: OpJoin, Method: NestedLoopJoin, Inputs: []*Node{in, scan}, Nest: name}
			if k, ok := keys[x]; ok {
				join.Method = HybridHashJoin
				join.LeftKey = k.probe
				join.RightKey = renameVar(k.build, k.variable, name)
			}
			in = join
			return &aql.VariableRef{Name: name}
		}
		return x
	})
	return out, in, err
}

// limitReads is the error for a dataset in a limit or offset expression.
func limitReads(exprs ...aql.Expr) error {
	for _, e := range exprs {
		if ref := datasetIn(e); ref != nil {
			return fmt.Errorf("algebra: limit and offset read no datasets, got %s", ref)
		}
	}
	return nil
}

// nestKey is the equality a keyed nest join hashes on: probe over the node's
// input, build over the for variable.
type nestKey struct {
	variable     string
	probe, build aql.Expr
}

// keyOf looks for the key of the i-th clause of fl, a for over a dataset:
// the first where conjunct a = b after it — before any group-by or limit,
// which see every row, and before its variable is rebound — with a over
// exactly the for variable and b over variables the node's input binds and
// nothing around or in fl rebinds.
func keyOf(fl *aql.FLWORExpr, i int, sc *aql.Scope, inputVars []string) (nestKey, bool) {
	m := fl.Clauses[i].(*aql.ForClause).Var
	var local []string // every variable fl binds
	for _, c := range fl.Clauses {
		switch c := c.(type) {
		case *aql.ForClause:
			local = append(local, c.Var, c.PosVar)
		case *aql.LetClause:
			local = append(local, c.Var)
		case *aql.GroupByClause:
			local = append(local, c.With...)
			for _, k := range c.Keys {
				local = append(local, k.Var)
			}
		}
	}
	outer := func(e aql.Expr) bool {
		for _, v := range FreeVarsOf(e) {
			if sc.Bound(v) || contains(local, v) || !contains(inputVars, v) {
				return false
			}
		}
		return true
	}
	for _, c := range fl.Clauses[i+1:] {
		switch c := c.(type) {
		case *aql.GroupByClause, *aql.LimitClause:
			return nestKey{}, false
		case *aql.ForClause:
			if c.Var == m || c.PosVar == m {
				return nestKey{}, false
			}
		case *aql.LetClause:
			if c.Var == m {
				return nestKey{}, false
			}
		case *aql.WhereClause:
			onlyM := func(e aql.Expr) bool {
				free := FreeVarsOf(e)
				return len(free) == 1 && free[0] == m
			}
			for _, cond := range splitConjuncts(c.Cond) {
				if build, probe, ok := equiSides(cond, onlyM, outer); ok {
					return nestKey{variable: m, probe: probe, build: build}, true
				}
			}
		}
	}
	return nestKey{}, false
}

// equiSides is the side-matching test of both join rules: cond is an
// equality whose sides, taken one way round or the other, satisfy first and
// second. It returns them in that order.
func equiSides(cond aql.Expr, first, second func(aql.Expr) bool) (aql.Expr, aql.Expr, bool) {
	be, ok := cond.(*aql.BinaryExpr)
	if !ok || be.Op != aql.OpEq {
		return nil, nil, false
	}
	for _, pair := range [2][2]aql.Expr{{be.Left, be.Right}, {be.Right, be.Left}} {
		if first(pair[0]) && second(pair[1]) {
			return pair[0], pair[1], true
		}
	}
	return nil, nil, false
}

// renameVar replaces the free references to one variable by another.
func renameVar(e aql.Expr, from, to string) aql.Expr {
	return aql.Rewrite(e, func(x aql.Expr, sc *aql.Scope) aql.Expr {
		if v, ok := x.(*aql.VariableRef); ok && v.Name == from && !sc.Bound(from) {
			return &aql.VariableRef{Name: to}
		}
		return x
	})
}

// datasetIn returns the first dataset reference in e, or nil.
func datasetIn(e aql.Expr) *aql.DatasetRef {
	var ref *aql.DatasetRef
	aql.Rewrite(e, func(x aql.Expr, _ *aql.Scope) aql.Expr {
		if d, ok := x.(*aql.DatasetRef); ok && ref == nil {
			ref = d
		}
		return x
	})
	return ref
}

// boundVars lists the variables the output tuples of n bind.
func boundVars(n *Node) []string {
	if n == nil {
		return nil
	}
	var in []string
	if len(n.Inputs) > 0 {
		in = boundVars(n.Inputs[0])
	}
	switch n.Kind {
	case OpScan, OpSubplan:
		return []string{n.Variable, n.PosVar}
	case OpUnnest:
		return append(in, n.Variable, n.PosVar)
	case OpAssign:
		return append(in, n.Vars...)
	case OpIndexSearch, OpPrimarySearch:
		return append(in, n.Variable)
	case OpJoin:
		if n.Nest != "" {
			return append(in, n.Nest)
		}
		return append(in, boundVars(n.Inputs[1])...)
	case OpGroupBy:
		out := append([]string(nil), n.GroupWith...)
		for _, k := range n.GroupKeys {
			out = append(out, k.Var)
		}
		return out
	}
	return in
}

// ordered reports whether n's output is in an order-by's order: only a
// broadcast join keeps it.
func ordered(n *Node) bool {
	for n != nil {
		switch {
		case n.Kind == OpOrder:
			return true
		case n.Kind == OpSelect, n.Kind == OpAssign, n.Kind == OpUnnest, n.Kind == OpLimit,
			n.Kind == OpJoin && n.Nest != "" && n.LeftKey == nil:
			n = n.Inputs[0]
		default:
			return false
		}
	}
	return false
}
