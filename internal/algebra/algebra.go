// Package algebra is the Algebricks-style algebra layer (Section 4.2 of the
// paper): AQL FLWOR expressions are translated into a tree of data-model-
// neutral logical operators, rewritten by rule-based (not cost-based)
// optimization, and annotated into a physical plan. The rules implemented are
// the paper's "safe" rewritings: always use an index-based access path for
// selections when an index is available, always use hybrid hash joins for
// equijoins (unless an indexnl hint asks for index probes and the inner
// dataset has an index to probe), split aggregates into local and global
// halves, and sort primary keys between a secondary-index search and the
// primary-index search it feeds.
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
	OpScan          OpKind = "datasource-scan"
	OpSelect        OpKind = "select"
	OpAssign        OpKind = "assign"
	OpJoin          OpKind = "join"
	OpGroupBy       OpKind = "group-by"
	OpOrder         OpKind = "order"
	OpLimit         OpKind = "limit"
	OpAggregate     OpKind = "aggregate"
	OpSubplan       OpKind = "subplan"
	OpUnnest        OpKind = "unnest"
	OpDistribute    OpKind = "distribute-result"
	OpIndexSearch   OpKind = "index-search-secondary"
	OpPrimarySearch OpKind = "btree-search-primary"
	OpSortPK        OpKind = "sort-primary-keys"
	OpLocalAgg      OpKind = "aggregate-local"
	OpGlobalAgg     OpKind = "aggregate-global"
)

// JoinMethod is the physical join algorithm.
type JoinMethod string

// Join methods.
const (
	HybridHashJoin JoinMethod = "hybrid-hash-join"
	NestedLoopJoin JoinMethod = "nested-loop-join"
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
	// Index and IndexKind name the secondary index an index search probes.
	Index     string
	IndexKind IndexKind
	// The probe of an index search. LoExpr/HiExpr bound a B+-tree range (an
	// equality sets both to the same expression; a primary-index search that
	// probes by key carries it in LoExpr). ProbeExpr is the probe of an r-tree
	// or inverted-index search: the spatial value whose MBR filters the r-tree,
	// or the string whose tokens/grams filter the inverted index. None of them
	// references the searched dataset's variable. A search with no input is a
	// source: its probe is evaluated once, in the empty environment. A search
	// with an input (the index nested-loop join) evaluates its probe against
	// each input tuple and carries that tuple's variables along.
	LoExpr, HiExpr aql.Expr
	ProbeExpr      aql.Expr

	// Select / assign / aggregate fields.
	Condition aql.Expr
	Exprs     []aql.Expr
	Vars      []string

	// Join fields.
	Method            JoinMethod
	LeftKey, RightKey aql.Expr
	// Nest makes a join a nest join (see NestDatasets): each tuple of the
	// probe input Inputs[0] — nil for the one empty tuple — is emitted once,
	// with Nest bound to the list of its matching build rows, the values
	// the build scan binds to the same name.
	Nest string

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
	// Query is the FLWOR the plan was compiled from; for a constant
	// (non-FLWOR) query it is a clause-less FLWOR returning the expression.
	// After NestDatasets its return reads nest variables, not datasets.
	Query *aql.FLWORExpr
}

// IndexKind names a kind of index in the words of the DDL's "type" clause
// (the storage layer's kinds, spelled the same), plus the primary index.
type IndexKind string

// Index kinds.
const (
	PrimaryIndex IndexKind = "primary"
	BTreeIndex   IndexKind = "btree"
	RTreeIndex   IndexKind = "rtree"
	KeywordIndex IndexKind = "keyword"
	NGramIndex   IndexKind = "ngram"
)

// IndexInfo describes one index of a dataset: its name, kind and first key
// field, and for an ngram index the gram length.
type IndexInfo struct {
	Name       string
	Kind       IndexKind
	Field      string
	GramLength int
}

// DatasetInfo is what the optimizer needs to know about a dataset: its
// primary key and its secondary indexes in creation order (when two indexes
// answer a predicate the first created is chosen). A dataset with no stored
// partitions — external, Metadata, or unknown — has neither.
type DatasetInfo struct {
	PrimaryKey []string
	Indexes    []IndexInfo
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
				root = &Node{Kind: OpJoin, Method: NestedLoopJoin, Inputs: []*Node{root, scan}}
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
	root := rewriteJoins(plan.Root, cat, opts)
	if !opts.DisableIndexAccess {
		root = rewriteIndexAccess(root, cat, opts)
	}
	return &Plan{Root: root, Query: plan.Query}
}

// rewriteJoins applies filterJoin to every select directly above a join,
// bottom-up.
func rewriteJoins(n *Node, cat Catalog, opts Options) *Node {
	if n == nil {
		return nil
	}
	for i, in := range n.Inputs {
		n.Inputs[i] = rewriteJoins(in, cat, opts)
	}
	return filterJoin(n, cat, opts)
}

// filterJoin is the join rule, for a select directly above a hash or
// nested-loop join (not a nest join). Sides are told apart by the variables
// each input binds (boundVars), so a key may reach a variable through a let
// or sit between two inner inputs of a multi-way join.
//
//   - The first conjunct a = b with a over the left input's variables and b
//     over the right's becomes the join key: a hybrid hash join. A join that
//     already has a key keeps it.
//   - When the key carries an /*+ indexnl */ hint and the access-path rule
//     finds an index of the inner dataset to probe with it, the join becomes
//     that access path fed by the outer input (the index nested-loop join:
//     the outer tuples are sent to the inner dataset's partitions and each
//     probes its local index), and every other conjunct stays above it. This
//     is the only place that decides whether a hint is honoured, so the plan
//     always names the join the job runs.
//   - Otherwise each remaining conjunct over one input's variables becomes a
//     select over that input, in its original order, so the join builds and
//     probes only the rows that can survive. A select pushed onto a join
//     goes through this rule again, and one pushed onto a scan is an
//     access-path candidate for rewriteIndexAccess.
//   - A conjunct stays above the join when it has no free variables, spans
//     both inputs, or can raise an error (cannotRaise): the join used to
//     discard an unmatched row before such a conjunct saw it, and still does.
func filterJoin(n *Node, cat Catalog, opts Options) *Node {
	if n.Kind != OpSelect || len(n.Inputs) != 1 || n.Inputs[0].Kind != OpJoin || n.Inputs[0].Nest != "" {
		return n
	}
	join := n.Inputs[0]
	rightVars := boundVars(join.Inputs[1])
	// A name both inputs bind is the right input's in the joined tuple.
	var leftVars []string
	for _, v := range boundVars(join.Inputs[0]) {
		if !contains(rightVars, v) {
			leftVars = append(leftVars, v)
		}
	}
	var rest []aql.Expr
	var key *aql.BinaryExpr
	for _, cond := range splitConjuncts(n.Condition) {
		if key == nil && join.LeftKey == nil {
			if l, r, ok := equiSides(cond, over(leftVars), over(rightVars)); ok {
				join.LeftKey, join.RightKey, join.Method = l, r, HybridHashJoin
				key = cond.(*aql.BinaryExpr)
				continue
			}
		}
		rest = append(rest, cond)
	}
	// Index probes replace the inner scan, so the inner must be a plain scan:
	// they emit only the matching records and could not bind a positional
	// variable to its position in the full scan.
	outer, inner := join.Inputs[0], join.Inputs[1]
	if key != nil && strings.Contains(key.Hint, "indexnl") && inner.Kind == OpScan && inner.PosVar == "" {
		info := cat.DatasetInfo(inner.Dataverse, inner.Dataset)
		switch path := accessPath(inner, key, info.probeIndexes(), outer, opts); {
		case path == nil:
		case path.LoExpr != nil:
			// A primary-key probe answers the join predicate exactly, as the
			// hash join does: only the other conjuncts are left to select.
			return selectOver(path, rest)
		default:
			// The select keeps every conjunct, the join predicate included: it
			// is the access path's post-validation.
			n.Inputs[0] = path
			return n
		}
	}
	var above, left, right []aql.Expr
	for _, cond := range rest {
		switch {
		case !cannotRaise(cond):
			above = append(above, cond)
		case over(leftVars)(cond):
			left = append(left, cond)
		case over(rightVars)(cond):
			right = append(right, cond)
		default:
			above = append(above, cond)
		}
	}
	if len(left) > 0 {
		join.Inputs[0] = pushSelect(join.Inputs[0], left, cat, opts)
	}
	if len(right) > 0 {
		join.Inputs[1] = pushSelect(join.Inputs[1], right, cat, opts)
	}
	return selectOver(join, above)
}

// over returns the test "e has free variables, all of them in vars".
func over(vars []string) func(aql.Expr) bool {
	return func(e aql.Expr) bool {
		free := FreeVarsOf(e)
		for _, v := range free {
			if !contains(vars, v) {
				return false
			}
		}
		return len(free) > 0
	}
}

// pushSelect puts the conjuncts in a select over in, merged after those of a
// select already there, and applies the join rule to it.
func pushSelect(in *Node, conds []aql.Expr, cat Catalog, opts Options) *Node {
	if in.Kind == OpSelect {
		conds = append(splitConjuncts(in.Condition), conds...)
		in = in.Inputs[0]
	}
	return filterJoin(selectOver(in, conds), cat, opts)
}

// selectOver is a select of the conjuncts over in, or in when there are none.
func selectOver(in *Node, conds []aql.Expr) *Node {
	if len(conds) == 0 {
		return in
	}
	return &Node{Kind: OpSelect, Inputs: []*Node{in}, Condition: joinConjuncts(conds)}
}

// cannotRaise reports whether evaluating e never returns an error: e is built
// only from literals, variable references, field and index access, the six
// comparisons, and and/or/not. Comparing or reaching into values of the
// wrong type yields NULL or MISSING, never an error; arithmetic, function
// calls and everything else may raise.
func cannotRaise(e aql.Expr) bool {
	switch x := e.(type) {
	case *aql.Literal, *aql.VariableRef:
		return true
	case *aql.FieldAccess:
		return cannotRaise(x.Base)
	case *aql.IndexAccess:
		return cannotRaise(x.Base) && cannotRaise(x.Index)
	case *aql.UnaryExpr:
		return x.Op == "not" && cannotRaise(x.Operand)
	case *aql.BinaryExpr:
		switch x.Op {
		case aql.OpEq, aql.OpNeq, aql.OpLt, aql.OpLe, aql.OpGt, aql.OpGe, aql.OpAnd, aql.OpOr:
			return cannotRaise(x.Left) && cannotRaise(x.Right)
		}
	}
	return false
}

// rewriteIndexAccess replaces select-over-scan with the Figure 6 access path
// when the access-path rule finds an index answering the selection; for an
// equality on the primary key that is the primary search alone.
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
	if path := accessPath(scan, n.Condition, info.probeIndexes(), nil, opts); path != nil {
		// The select stays as the post-validation re-applying the whole
		// original predicate.
		n.Inputs[0] = path
	}
	return n
}

// probeIndexes lists the indexes an access path may search: the primary index
// (when the key is a single field) ahead of the secondary ones, so an equality
// on the key wins over any secondary index.
func (info DatasetInfo) probeIndexes() []IndexInfo {
	if len(info.PrimaryKey) != 1 {
		return info.Indexes
	}
	return append([]IndexInfo{{Kind: PrimaryIndex, Field: info.PrimaryKey[0]}}, info.Indexes...)
}

// accessPath is the one access-method rule. It walks the index list in order,
// asks each index's matcher (by kind) for a probe the predicate supplies, and
// for the first that has one returns the Figure 6 chain in place of the scan:
// secondary search -> sort primary keys (unless ablated) -> primary search;
// for the primary index itself, just the primary search. The caller's select
// above post-validates the exact predicate, so a matcher only has to be
// conservative (a probe by primary key is exact, like a hash join's key).
// outer, when not nil, feeds the chain (see Node.LoExpr). It returns nil when
// no index answers the predicate.
func accessPath(scan *Node, cond aql.Expr, indexes []IndexInfo, outer *Node, opts Options) *Node {
	conjuncts := splitConjuncts(cond)
	for _, ix := range indexes {
		match := indexKinds[ix.Kind].match
		if match == nil {
			continue // a kind the optimizer has no rule for
		}
		pr, ok := match(ix, conjuncts, scan.Variable)
		if !ok {
			continue
		}
		primary := &Node{Kind: OpPrimarySearch, Inputs: inputsOf(outer), Dataset: scan.Dataset, Dataverse: scan.Dataverse, Variable: scan.Variable}
		if ix.Kind == PrimaryIndex {
			primary.LoExpr = pr.lo
			return primary
		}
		chain := &Node{
			Kind: OpIndexSearch, Inputs: inputsOf(outer), Dataset: scan.Dataset, Dataverse: scan.Dataverse, Variable: scan.Variable,
			Index: ix.Name, IndexKind: ix.Kind, LoExpr: pr.lo, HiExpr: pr.hi, ProbeExpr: pr.value,
		}
		if !opts.DisablePKSort {
			chain = &Node{Kind: OpSortPK, Inputs: []*Node{chain}}
		}
		primary.Inputs = []*Node{chain}
		return primary
	}
	return nil
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

// probe is what a matcher extracts from a predicate for its index: the
// expressions an index search node carries (see Node.LoExpr).
type probe struct {
	lo, hi, value aql.Expr
}

// indexKinds is what the optimizer knows per index kind: the operator name
// its search runs under (in Explain and in job labels) and its matcher, which
// looks among a predicate's conjuncts for one the index can answer
// conservatively — candidates are a superset of the true matches — with a
// probe that does not reference the scan variable.
var indexKinds = map[IndexKind]struct {
	search string
	match  func(ix IndexInfo, conjuncts []aql.Expr, scanVar string) (probe, bool)
}{
	PrimaryIndex: {"btree-search", matchKey},
	BTreeIndex:   {"btree-search", matchRange},
	RTreeIndex:   {"rtree-search", matchSpatial},
	KeywordIndex: {"inverted-search", matchWordTokens},
	NGramIndex:   {"inverted-search", matchContains},
}

// SearchName is the operator name an index of this kind is searched under.
func (k IndexKind) SearchName() string { return indexKinds[k].search }

// comparisons visits the conjuncts of the form $var.field op e (or
// e op $var.field, reported with the operator reversed) on the given field
// whose comparison value e does not reference the scan variable.
func comparisons(conjuncts []aql.Expr, scanVar, field string, visit func(op aql.BinaryOp, val aql.Expr)) {
	for _, c := range conjuncts {
		be, ok := c.(*aql.BinaryExpr)
		if !ok {
			continue
		}
		for _, side := range []struct {
			access, val aql.Expr
			op          aql.BinaryOp
		}{{be.Left, be.Right, be.Op}, {be.Right, be.Left, reverseOp(be.Op)}} {
			if f, ok := FieldAccessOf(side.access, scanVar); ok && f == field && !contains(FreeVarsOf(side.val), scanVar) {
				visit(side.op, side.val)
				break
			}
		}
	}
}

// matchRange combines the >=, >, <=, < and = conjuncts on the indexed field
// into the bounds of a B+-tree range search. The search reads both bounds
// inclusively; the post-validation select enforces a strict one.
func matchRange(ix IndexInfo, conjuncts []aql.Expr, scanVar string) (probe, bool) {
	var pr probe
	comparisons(conjuncts, scanVar, ix.Field, func(op aql.BinaryOp, val aql.Expr) {
		switch op {
		case aql.OpGe, aql.OpGt:
			pr.lo = val
		case aql.OpLe, aql.OpLt:
			pr.hi = val
		case aql.OpEq:
			pr.lo, pr.hi = val, val
		}
	})
	return pr, pr.lo != nil || pr.hi != nil
}

// matchKey looks for an equality conjunct on the primary-key field: the
// primary index is probed by key, not ranged over.
func matchKey(ix IndexInfo, conjuncts []aql.Expr, scanVar string) (probe, bool) {
	var pr probe
	comparisons(conjuncts, scanVar, ix.Field, func(op aql.BinaryOp, val aql.Expr) {
		if op == aql.OpEq && pr.lo == nil {
			pr.lo = val
		}
	})
	return pr, pr.lo != nil
}

// matchSpatial looks for a conjunct spatial-intersect($var.field, probe)
// (either argument order) on the r-tree's field. The search filters on the
// probe's MBR, so any spatial probe type is admissible.
func matchSpatial(ix IndexInfo, conjuncts []aql.Expr, scanVar string) (probe, bool) {
	for _, c := range conjuncts {
		call, ok := c.(*aql.CallExpr)
		if !ok || call.Func != "spatial-intersect" || len(call.Args) != 2 {
			continue
		}
		for i := 0; i < 2; i++ {
			field, isField := FieldAccessOf(call.Args[i], scanVar)
			if !isField || field != ix.Field || contains(FreeVarsOf(call.Args[1-i]), scanVar) {
				continue
			}
			return probe{value: call.Args[1-i]}, true
		}
	}
	return probe{}, false
}

// matchContains looks for a conjunct contains($var.field, "literal") on the
// ngram index's field whose literal is at least gram-length characters long
// (a shorter probe produces no grams, so the index could not bound the
// candidate set).
func matchContains(ix IndexInfo, conjuncts []aql.Expr, scanVar string) (probe, bool) {
	for _, c := range conjuncts {
		call, ok := c.(*aql.CallExpr)
		if !ok || call.Func != "contains" || len(call.Args) != 2 {
			continue
		}
		if field, ok := FieldAccessOf(call.Args[0], scanVar); !ok || field != ix.Field {
			continue
		}
		lit, ok := call.Args[1].(*aql.Literal)
		if !ok {
			continue
		}
		if s, ok := lit.Value.(adm.String); ok && len([]rune(string(s))) >= ix.GramLength {
			return probe{value: lit}, true
		}
	}
	return probe{}, false
}

// matchWordTokens looks for a conjunct
// some $w in word-tokens($var.field) satisfies $w = probe on the keyword
// index's field, for any probe not referencing the bound variables.
func matchWordTokens(ix IndexInfo, conjuncts []aql.Expr, scanVar string) (probe, bool) {
	for _, c := range conjuncts {
		q, ok := c.(*aql.QuantifiedExpr)
		if !ok || q.Every {
			continue
		}
		src, ok := q.Source.(*aql.CallExpr)
		if !ok || src.Func != "word-tokens" || len(src.Args) != 1 {
			continue
		}
		if field, ok := FieldAccessOf(src.Args[0], scanVar); !ok || field != ix.Field {
			continue
		}
		be, ok := q.Satisfies.(*aql.BinaryExpr)
		if !ok || be.Op != aql.OpEq {
			continue
		}
		for _, pair := range [][2]aql.Expr{{be.Left, be.Right}, {be.Right, be.Left}} {
			vr, ok := pair[0].(*aql.VariableRef)
			if !ok || vr.Name != q.Var {
				continue
			}
			vars := FreeVarsOf(pair[1])
			if contains(vars, scanVar) || contains(vars, q.Var) {
				continue
			}
			return probe{value: pair[1]}, true
		}
	}
	return probe{}, false
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
		return fmt.Sprintf("%s (secondary %s on %s)", n.IndexKind.SearchName(), n.Index, n.Dataset)
	case OpSortPK:
		return "sort (primary keys)"
	case OpPrimarySearch:
		return fmt.Sprintf("btree-search (primary %s)", n.Dataset)
	case OpSelect:
		return fmt.Sprintf("select %s", n.Condition)
	case OpAssign:
		return fmt.Sprintf("assign $%s", strings.Join(n.Vars, ", $"))
	case OpJoin:
		if n.Nest != "" {
			return fmt.Sprintf("join (%s) nest $%s", n.Method, n.Nest)
		}
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
