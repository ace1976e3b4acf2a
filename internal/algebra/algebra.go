// Package algebra is the Algebricks-style algebra layer (Section 4.2 of the
// paper): AQL FLWOR expressions are translated into a tree of data-model-
// neutral logical operators, rewritten by rule-based (not cost-based)
// optimization, and annotated into a physical plan. The rules implemented are
// the paper's "safe" rewritings: always use an index-based access path for
// selections when an index is available, always use hybrid hash joins for
// equijoins (unless an indexnl hint overrides it), split aggregates into
// local and global halves, and sort primary keys between a secondary-index
// search and the primary-index search it feeds.
package algebra

import (
	"fmt"
	"strings"

	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
)

// OpKind names a logical/physical operator.
type OpKind string

// Operator kinds.
const (
	OpScan           OpKind = "datasource-scan"
	OpSelect         OpKind = "select"
	OpAssign         OpKind = "assign"
	OpJoin           OpKind = "join"
	OpGroupBy        OpKind = "group-by"
	OpOrder          OpKind = "order"
	OpLimit          OpKind = "limit"
	OpAggregate      OpKind = "aggregate"
	OpSubplan        OpKind = "subplan"
	OpUnnest         OpKind = "unnest"
	OpDistribute     OpKind = "distribute-result"
	OpIndexSearch    OpKind = "btree-search-secondary"
	OpRTreeSearch    OpKind = "rtree-search-secondary"
	OpInvertedSearch OpKind = "inverted-search-secondary"
	OpPrimarySearch  OpKind = "btree-search-primary"
	OpSortPK         OpKind = "sort-primary-keys"
	OpLocalAgg       OpKind = "aggregate-local"
	OpGlobalAgg      OpKind = "aggregate-global"
)

// JoinMethod is the physical join algorithm.
type JoinMethod string

// Join methods.
const (
	HybridHashJoin  JoinMethod = "hybrid-hash-join"
	IndexNestedLoop JoinMethod = "index-nested-loop-join"
	NestedLoopJoin  JoinMethod = "nested-loop-join"
)

// Node is one operator in a plan tree. Inputs[0] is the primary input;
// binary operators (joins) have two inputs.
type Node struct {
	Kind   OpKind
	Inputs []*Node

	// Scan / index search fields.
	Dataset   string
	Dataverse string
	Variable  string
	// PosVar is the positional variable of a `for $v at $i in ...` clause:
	// the scan, subplan or unnest operator binds it to each item's 1-based
	// position in the source's iteration order. Positional sources are never
	// correlated (a correlated source compiles to an unnest, which carries its
	// own PosVar), so an item's position is a property of the item alone and
	// survives any join method above the source.
	PosVar string
	Index  string
	// LoExpr/HiExpr bound a B+-tree index range search (an equality search
	// sets both, inclusive, to the same expression).
	LoExpr, HiExpr aql.Expr
	LoInclusive    bool
	HiInclusive    bool
	// ProbeExpr is the probe argument of an r-tree or inverted-index search:
	// the spatial value whose MBR filters the r-tree, or the string whose
	// tokens/grams filter the inverted index. It never references the scan
	// variable, so it can be evaluated in an empty environment at run time.
	ProbeExpr aql.Expr

	// Select / assign / aggregate fields.
	Condition aql.Expr
	Exprs     []aql.Expr
	Vars      []string

	// Join fields.
	Method            JoinMethod
	LeftKey, RightKey aql.Expr
	LeftVar, RightVar string

	// Group by.
	GroupKeys []aql.GroupKey
	GroupWith []string

	// Order by.
	OrderTerms []aql.OrderTerm

	// Limit.
	LimitExpr, OffsetExpr aql.Expr

	// Aggregate call name (avg, count, ...) for split aggregates.
	AggFunc string
}

// Plan is a rooted operator tree plus the query it was built from: the job
// builder reads the return expression, which no operator node carries, off it.
type Plan struct {
	Root *Node
	// Query is the original FLWOR the plan was compiled from; for a constant
	// (non-FLWOR) query it is a clause-less FLWOR returning the expression.
	Query *aql.FLWORExpr
}

// DatasetInfo is what the optimizer needs to know about a dataset.
type DatasetInfo struct {
	Exists     bool
	Partitions int
	// BTreeIndexes maps indexed field name -> index name.
	BTreeIndexes map[string]string
	// RTreeIndexes maps indexed field name -> index name.
	RTreeIndexes map[string]string
	// KeywordIndexes maps indexed field name -> keyword inverted index name.
	KeywordIndexes map[string]string
	// NGramIndexes maps indexed field name -> ngram inverted index name, with
	// the gram length in NGramLengths. A contains() predicate can use the
	// index only when its probe is at least the gram length long (shorter
	// probes produce no grams and the index could not bound the candidates).
	NGramIndexes map[string]string
	NGramLengths map[string]int
}

// Catalog resolves dataset metadata for the optimizer.
type Catalog interface {
	DatasetInfo(dataverse, name string) DatasetInfo
}

// ----------------------------------------------------------------------------
// Logical plan construction
// ----------------------------------------------------------------------------

// Build translates a FLWOR expression into an (unoptimized) logical plan:
// a left-deep tree of scans and joins with selects on top, followed by the
// group/order/limit/distribute pipeline. A for-clause over a non-dataset
// source that references earlier bindings (for $y in $x.list) becomes an
// unnest operator over the current pipeline instead of a standalone source.
func Build(fl *aql.FLWORExpr) (*Plan, error) {
	var root *Node
	var pendingWhere []aql.Expr
	// bound tracks the plan variables in scope after each clause, so a
	// for-clause source can be classified as correlated (unnest) or free-
	// standing (subplan source).
	bound := map[string]bool{}
	for _, clause := range fl.Clauses {
		switch c := clause.(type) {
		case *aql.ForClause:
			if _, isDataset := c.Source.(*aql.DatasetRef); !isDataset && root != nil && referencesAny(c.Source, bound) {
				root = &Node{Kind: OpUnnest, Inputs: []*Node{root}, Variable: c.Var, PosVar: c.PosVar, Exprs: []aql.Expr{c.Source}}
				bound[c.Var] = true
				if c.PosVar != "" {
					bound[c.PosVar] = true
				}
				continue
			}
			scan := buildSource(c)
			if root == nil {
				root = scan
			} else {
				root = &Node{Kind: OpJoin, Method: NestedLoopJoin, Inputs: []*Node{root, scan},
					LeftVar: firstVar(root), RightVar: c.Var}
			}
			bound[c.Var] = true
			if c.PosVar != "" {
				bound[c.PosVar] = true
			}
		case *aql.LetClause:
			root = &Node{Kind: OpAssign, Inputs: inputsOf(root), Vars: []string{c.Var}, Exprs: []aql.Expr{c.Expr}}
			bound[c.Var] = true
		case *aql.WhereClause:
			if root == nil {
				pendingWhere = append(pendingWhere, c.Cond)
				continue
			}
			root = &Node{Kind: OpSelect, Inputs: []*Node{root}, Condition: c.Cond}
		case *aql.GroupByClause:
			root = &Node{Kind: OpGroupBy, Inputs: inputsOf(root), GroupKeys: c.Keys, GroupWith: c.With}
			bound = map[string]bool{}
			for _, k := range c.Keys {
				bound[k.Var] = true
			}
			for _, w := range c.With {
				bound[w] = true
			}
		case *aql.OrderByClause:
			root = &Node{Kind: OpOrder, Inputs: inputsOf(root), OrderTerms: c.Terms}
		case *aql.LimitClause:
			root = &Node{Kind: OpLimit, Inputs: inputsOf(root), LimitExpr: c.Limit, OffsetExpr: c.Offset}
		default:
			return nil, fmt.Errorf("algebra: unsupported clause %T", clause)
		}
	}
	if root == nil {
		return nil, fmt.Errorf("algebra: FLWOR expression has no for/let clause")
	}
	for _, w := range pendingWhere {
		root = &Node{Kind: OpSelect, Inputs: []*Node{root}, Condition: w}
	}
	root = &Node{Kind: OpDistribute, Inputs: []*Node{root}}
	return &Plan{Root: root, Query: fl}, nil
}

func inputsOf(root *Node) []*Node {
	if root == nil {
		return nil
	}
	return []*Node{root}
}

func buildSource(c *aql.ForClause) *Node {
	if ds, ok := c.Source.(*aql.DatasetRef); ok {
		return &Node{Kind: OpScan, Dataset: ds.Name, Dataverse: ds.Dataverse, Variable: c.Var, PosVar: c.PosVar}
	}
	// Iteration over a non-dataset expression becomes a subplan source: the
	// job evaluates the expression once and emits its items.
	return &Node{Kind: OpSubplan, Variable: c.Var, PosVar: c.PosVar, Exprs: []aql.Expr{c.Source}}
}

// referencesAny reports whether the expression has a free reference to any of
// the given variables. Variables the expression binds itself (a nested
// FLWOR's for/let variables, quantified variables) are not free, so an
// independent subquery source is not misclassified as correlated.
func referencesAny(e aql.Expr, vars map[string]bool) bool {
	for _, v := range FreeVarsOf(e) {
		if vars[v] {
			return true
		}
	}
	return false
}

// FreeVarsOf collects, in first-reference order, the variables an expression
// references but does not bind itself (aql.Rewrite defines the scoping): the
// expression's value can depend on its environment only through them. Build
// uses it to tell a correlated for-source (unnest) from a free-standing one
// (subplan), the rewrite rules to check that a probe or join key does not
// depend on the scan variable, and the job builder to refuse a subplan source
// that could not run in an empty environment.
func FreeVarsOf(e aql.Expr) []string {
	var free []string
	aql.Rewrite(e, func(e aql.Expr, sc *aql.Scope) aql.Expr {
		if v, ok := e.(*aql.VariableRef); ok && !sc.Bound(v.Name) && !contains(free, v.Name) {
			free = append(free, v.Name)
		}
		return e
	})
	return free
}

func firstVar(n *Node) string {
	if n == nil {
		return ""
	}
	if n.Variable != "" {
		return n.Variable
	}
	for _, in := range n.Inputs {
		if v := firstVar(in); v != "" {
			return v
		}
	}
	return ""
}

// ----------------------------------------------------------------------------
// Optimization
// ----------------------------------------------------------------------------

// Options tune the optimizer (used by ablation benchmarks).
type Options struct {
	// DisableIndexAccess turns off index access path introduction
	// (equivalent to the paper's skip-index hints).
	DisableIndexAccess bool
	// DisableAggSplit turns off the local/global aggregation split.
	DisableAggSplit bool
	// DisablePKSort removes the primary-key sort between secondary and
	// primary index searches.
	DisablePKSort bool
}

// Optimize rewrites the plan using the rule set. It never uses cost: like the
// 2014 system it applies "safe" rules plus user hints.
func Optimize(plan *Plan, cat Catalog, opts Options) *Plan {
	root := plan.Root
	root = rewriteJoins(root, cat)
	if !opts.DisableIndexAccess {
		root = rewriteIndexAccess(root, cat, opts)
	}
	return &Plan{Root: root, Query: plan.Query}
}

// rewriteJoins detects equality join predicates sitting directly above a
// join and picks the physical join method: hybrid hash join by default, or
// index nested-loop when the predicate carries an /*+ indexnl */ hint.
func rewriteJoins(n *Node, cat Catalog) *Node {
	if n == nil {
		return nil
	}
	for i, in := range n.Inputs {
		n.Inputs[i] = rewriteJoins(in, cat)
	}
	if n.Kind != OpSelect || len(n.Inputs) != 1 || n.Inputs[0].Kind != OpJoin {
		return n
	}
	join := n.Inputs[0]
	conds := splitConjuncts(n.Condition)
	var rest []aql.Expr
	for _, cond := range conds {
		be, ok := cond.(*aql.BinaryExpr)
		if !ok || be.Op != aql.OpEq || join.LeftKey != nil {
			rest = append(rest, cond)
			continue
		}
		leftVars := FreeVarsOf(be.Left)
		rightVars := FreeVarsOf(be.Right)
		lv, rv := join.LeftVar, join.RightVar
		switch {
		case contains(leftVars, lv) && contains(rightVars, rv):
			join.LeftKey, join.RightKey = be.Left, be.Right
		case contains(leftVars, rv) && contains(rightVars, lv):
			join.LeftKey, join.RightKey = be.Right, be.Left
		default:
			rest = append(rest, cond)
			continue
		}
		// An index nested-loop probe replaces the right-hand scan with index
		// lookups, which cannot bind that scan's positional variable; a
		// positional right side keeps the position-preserving hash join.
		if strings.Contains(be.Hint, "indexnl") && join.Inputs[1].PosVar == "" {
			join.Method = IndexNestedLoop
		} else {
			join.Method = HybridHashJoin
		}
	}
	if len(rest) == 0 {
		return join
	}
	return &Node{Kind: OpSelect, Inputs: []*Node{join}, Condition: joinConjuncts(rest)}
}

// rewriteIndexAccess replaces select-over-scan with the Figure 6 access path
// when the selection has an index-usable predicate: a range or equality
// predicate on a field with a secondary B+-tree index, a spatial-intersect
// predicate on a field with an R-tree index, or a contains / tokenized-
// equality predicate on a field with an inverted (ngram / keyword) index.
// The rewritten chain is always secondary search -> sort PKs -> primary
// search -> post-validation select.
func rewriteIndexAccess(n *Node, cat Catalog, opts Options) *Node {
	if n == nil {
		return nil
	}
	for i, in := range n.Inputs {
		n.Inputs[i] = rewriteIndexAccess(in, cat, opts)
	}
	// A positional scan is excluded: its variable is bound to the position in
	// the FULL scan's enumeration order, which an index access path (emitting
	// only the matching records) could not reproduce.
	if n.Kind != OpSelect || len(n.Inputs) != 1 || n.Inputs[0].Kind != OpScan || n.Inputs[0].PosVar != "" {
		return n
	}
	scan := n.Inputs[0]
	info := cat.DatasetInfo(scan.Dataverse, scan.Dataset)
	if !info.Exists {
		return n
	}
	if rng, field, ok := extractRange(n.Condition, scan.Variable); ok {
		if indexName, found := info.BTreeIndexes[field]; found {
			secondary := &Node{
				Kind: OpIndexSearch, Dataset: scan.Dataset, Dataverse: scan.Dataverse,
				Index: indexName, Variable: scan.Variable,
				LoExpr: rng.lo, HiExpr: rng.hi, LoInclusive: rng.loInc, HiInclusive: rng.hiInc,
			}
			return indexChain(secondary, scan, n.Condition, opts)
		}
	}
	if probe, field, ok := extractSpatialProbe(n.Condition, scan.Variable); ok {
		if indexName, found := info.RTreeIndexes[field]; found {
			secondary := &Node{
				Kind: OpRTreeSearch, Dataset: scan.Dataset, Dataverse: scan.Dataverse,
				Index: indexName, Variable: scan.Variable, ProbeExpr: probe,
			}
			return indexChain(secondary, scan, n.Condition, opts)
		}
	}
	if probe, indexName, ok := extractInvertedProbe(n.Condition, scan.Variable, info); ok {
		secondary := &Node{
			Kind: OpInvertedSearch, Dataset: scan.Dataset, Dataverse: scan.Dataverse,
			Index: indexName, Variable: scan.Variable, ProbeExpr: probe,
		}
		return indexChain(secondary, scan, n.Condition, opts)
	}
	return n
}

// indexChain wraps a secondary-index search in the rest of the Figure 6
// access path: the primary-key sort (unless ablated), the primary-index
// search, and the post-validation select that re-applies the whole original
// predicate.
func indexChain(secondary, scan *Node, cond aql.Expr, opts Options) *Node {
	chain := secondary
	if !opts.DisablePKSort {
		chain = &Node{Kind: OpSortPK, Inputs: []*Node{chain}}
	}
	primary := &Node{Kind: OpPrimarySearch, Inputs: []*Node{chain}, Dataset: scan.Dataset, Dataverse: scan.Dataverse, Variable: scan.Variable}
	return &Node{Kind: OpSelect, Inputs: []*Node{primary}, Condition: cond}
}

// WrapAggregate adds the local/global aggregation pair on top of a plan for
// queries of the form agg(for ... return e). translator.Compile calls it
// when it detects that shape; disableSplit (the ablation option) keeps the
// aggregate in one piece.
func WrapAggregate(plan *Plan, aggFunc string, disableSplit bool) *Plan {
	inner := plan.Root
	// Strip the distribute so the aggregate sits directly on the pipeline.
	if inner.Kind == OpDistribute {
		inner = inner.Inputs[0]
	}
	if disableSplit {
		agg := &Node{Kind: OpAggregate, Inputs: []*Node{inner}, AggFunc: aggFunc}
		return &Plan{Root: &Node{Kind: OpDistribute, Inputs: []*Node{agg}}, Query: plan.Query}
	}
	local := &Node{Kind: OpLocalAgg, Inputs: []*Node{inner}, AggFunc: aggFunc}
	global := &Node{Kind: OpGlobalAgg, Inputs: []*Node{local}, AggFunc: aggFunc}
	return &Plan{Root: &Node{Kind: OpDistribute, Inputs: []*Node{global}}, Query: plan.Query}
}

// ----------------------------------------------------------------------------
// Predicate analysis helpers
// ----------------------------------------------------------------------------

type rangeBounds struct {
	lo, hi       aql.Expr
	loInc, hiInc bool
}

// extractRange looks for conjuncts of the form $var.field >= e / <= e / = e
// and returns the combined bounds and the field name. Only predicates whose
// comparison value does not reference the scan variable qualify.
func extractRange(cond aql.Expr, scanVar string) (rangeBounds, string, bool) {
	var rb rangeBounds
	field := ""
	found := false
	for _, c := range splitConjuncts(cond) {
		be, ok := c.(*aql.BinaryExpr)
		if !ok {
			continue
		}
		fa, faOK := be.Left.(*aql.FieldAccess)
		valExpr := be.Right
		op := be.Op
		if !faOK {
			// try reversed: const <= $var.field
			if fa2, ok2 := be.Right.(*aql.FieldAccess); ok2 {
				fa, faOK, valExpr = fa2, true, be.Left
				op = reverseOp(be.Op)
			}
		}
		if !faOK {
			continue
		}
		vr, ok := fa.Base.(*aql.VariableRef)
		if !ok || vr.Name != scanVar {
			continue
		}
		if contains(FreeVarsOf(valExpr), scanVar) {
			continue
		}
		if field != "" && fa.Field != field {
			continue
		}
		switch op {
		case aql.OpGe:
			rb.lo, rb.loInc = valExpr, true
		case aql.OpGt:
			rb.lo, rb.loInc = valExpr, false
		case aql.OpLe:
			rb.hi, rb.hiInc = valExpr, true
		case aql.OpLt:
			rb.hi, rb.hiInc = valExpr, false
		case aql.OpEq:
			rb.lo, rb.hi, rb.loInc, rb.hiInc = valExpr, valExpr, true, true
		default:
			continue
		}
		field = fa.Field
		found = true
	}
	return rb, field, found
}

// extractSpatialProbe looks for a conjunct of the form
// spatial-intersect($var.field, probe) (either argument order) where the
// probe does not reference the scan variable, and returns the probe
// expression and field name. The R-tree search filters on the probe's MBR and
// the post-validation select re-applies the exact predicate, so any spatial
// probe type is admissible.
func extractSpatialProbe(cond aql.Expr, scanVar string) (aql.Expr, string, bool) {
	for _, c := range splitConjuncts(cond) {
		call, ok := c.(*aql.CallExpr)
		if !ok || call.Func != "spatial-intersect" || len(call.Args) != 2 {
			continue
		}
		for i := 0; i < 2; i++ {
			field, isField := FieldAccessOf(call.Args[i], scanVar)
			if !isField {
				continue
			}
			probe := call.Args[1-i]
			if contains(FreeVarsOf(probe), scanVar) {
				continue
			}
			return probe, field, true
		}
	}
	return nil, "", false
}

// extractInvertedProbe looks for a conjunct an inverted index can answer
// conservatively (candidates are a superset of the true matches; the
// post-validation select re-applies the exact predicate):
//
//   - contains($var.field, "literal") with an ngram index on the field, when
//     the literal is at least gram-length characters long (shorter probes
//     produce no grams, so the index could not bound the candidate set);
//   - some $w in word-tokens($var.field) satisfies $w = probe with a keyword
//     index on the field, for any probe not referencing the bound variables.
//
// It returns the probe expression and the index name to search.
func extractInvertedProbe(cond aql.Expr, scanVar string, info DatasetInfo) (aql.Expr, string, bool) {
	for _, c := range splitConjuncts(cond) {
		switch x := c.(type) {
		case *aql.CallExpr:
			if x.Func != "contains" || len(x.Args) != 2 {
				continue
			}
			field, ok := FieldAccessOf(x.Args[0], scanVar)
			if !ok {
				continue
			}
			indexName, found := info.NGramIndexes[field]
			if !found {
				continue
			}
			lit, ok := x.Args[1].(*aql.Literal)
			if !ok {
				continue
			}
			s, ok := lit.Value.(adm.String)
			if !ok || len([]rune(string(s))) < info.NGramLengths[field] {
				continue
			}
			return x.Args[1], indexName, true
		case *aql.QuantifiedExpr:
			if x.Every {
				continue
			}
			src, ok := x.Source.(*aql.CallExpr)
			if !ok || src.Func != "word-tokens" || len(src.Args) != 1 {
				continue
			}
			field, ok := FieldAccessOf(src.Args[0], scanVar)
			if !ok {
				continue
			}
			indexName, found := info.KeywordIndexes[field]
			if !found {
				continue
			}
			be, ok := x.Satisfies.(*aql.BinaryExpr)
			if !ok || be.Op != aql.OpEq {
				continue
			}
			for _, pair := range [][2]aql.Expr{{be.Left, be.Right}, {be.Right, be.Left}} {
				vr, ok := pair[0].(*aql.VariableRef)
				if !ok || vr.Name != x.Var {
					continue
				}
				probe := pair[1]
				vars := FreeVarsOf(probe)
				if contains(vars, scanVar) || contains(vars, x.Var) {
					continue
				}
				return probe, indexName, true
			}
		}
	}
	return nil, "", false
}

// FieldAccessOf recognizes expressions of the form $var.field and returns the
// field name.
func FieldAccessOf(e aql.Expr, variable string) (string, bool) {
	fa, ok := e.(*aql.FieldAccess)
	if !ok {
		return "", false
	}
	vr, ok := fa.Base.(*aql.VariableRef)
	if !ok || vr.Name != variable {
		return "", false
	}
	return fa.Field, true
}

func reverseOp(op aql.BinaryOp) aql.BinaryOp {
	switch op {
	case aql.OpGe:
		return aql.OpLe
	case aql.OpGt:
		return aql.OpLt
	case aql.OpLe:
		return aql.OpGe
	case aql.OpLt:
		return aql.OpGt
	}
	return op
}

// splitConjuncts flattens a tree of AND expressions into its conjuncts.
func splitConjuncts(e aql.Expr) []aql.Expr {
	be, ok := e.(*aql.BinaryExpr)
	if ok && be.Op == aql.OpAnd {
		return append(splitConjuncts(be.Left), splitConjuncts(be.Right)...)
	}
	if e == nil {
		return nil
	}
	return []aql.Expr{e}
}

func joinConjuncts(conjuncts []aql.Expr) aql.Expr {
	if len(conjuncts) == 0 {
		return nil
	}
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &aql.BinaryExpr{Op: aql.OpAnd, Left: out, Right: c}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// ----------------------------------------------------------------------------
// Explain
// ----------------------------------------------------------------------------

// Explain renders the plan tree bottom-up, one operator per line, in the
// spirit of Figure 6.
func Explain(plan *Plan) string {
	var lines []string
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		for _, in := range n.Inputs {
			walk(in)
		}
		lines = append(lines, describeNode(n))
	}
	walk(plan.Root)
	return strings.Join(lines, "\n")
}

func describeNode(n *Node) string {
	switch n.Kind {
	case OpScan:
		if n.PosVar != "" {
			return fmt.Sprintf("datasource-scan %s -> $%s at $%s", n.Dataset, n.Variable, n.PosVar)
		}
		return fmt.Sprintf("datasource-scan %s -> $%s", n.Dataset, n.Variable)
	case OpIndexSearch:
		return fmt.Sprintf("btree-search (secondary %s on %s)", n.Index, n.Dataset)
	case OpRTreeSearch:
		return fmt.Sprintf("rtree-search (secondary %s on %s)", n.Index, n.Dataset)
	case OpInvertedSearch:
		return fmt.Sprintf("inverted-search (secondary %s on %s)", n.Index, n.Dataset)
	case OpSortPK:
		return "sort (primary keys)"
	case OpPrimarySearch:
		return fmt.Sprintf("btree-search (primary %s)", n.Dataset)
	case OpSelect:
		return fmt.Sprintf("select %s", n.Condition)
	case OpAssign:
		return fmt.Sprintf("assign $%s", strings.Join(n.Vars, ", $"))
	case OpJoin:
		return fmt.Sprintf("join (%s)", n.Method)
	case OpGroupBy:
		keys := make([]string, len(n.GroupKeys))
		for i, k := range n.GroupKeys {
			keys[i] = "$" + k.Var
		}
		return "group-by " + strings.Join(keys, ", ")
	case OpOrder:
		return "order"
	case OpLimit:
		return "limit"
	case OpLocalAgg:
		return fmt.Sprintf("aggregate (local-%s)", n.AggFunc)
	case OpGlobalAgg:
		return fmt.Sprintf("aggregate (global-%s) [n:1 replicating]", n.AggFunc)
	case OpAggregate:
		return fmt.Sprintf("aggregate (%s)", n.AggFunc)
	case OpSubplan:
		return "subplan"
	case OpUnnest:
		if n.PosVar != "" {
			return fmt.Sprintf("unnest $%s at $%s", n.Variable, n.PosVar)
		}
		return fmt.Sprintf("unnest $%s", n.Variable)
	case OpDistribute:
		return "distribute-result"
	}
	return string(n.Kind)
}
