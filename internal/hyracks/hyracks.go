// Package hyracks implements a data-parallel dataflow runtime modelled on the
// Hyracks layer of the Asterix software stack (Section 4.1 of the paper).
// Jobs are DAGs of Operators and Connectors; every operator instance (one per
// partition) starts at once and Connectors redistribute tuples between them.
// Nothing runs the job stage by stage: a blocking operator holds back its
// consumers only because it emits nothing until its input has ended.
//
// # Execution model
//
// Execute spawns one goroutine per operator instance (an operator with
// parallelism N has N instances) and no other: cancellation is registered
// with context.AfterFunc, and the last instance to exit completes the job.
// FuseJob makes a one-to-one chain one operator, so one goroutine per
// partition runs the whole chain. Tuples stream between instances through
// bounded channels; a Connector decides which consumer instance receives each
// tuple (hash partitioning, replication, or partition-preserving one-to-one).
// Operators with more than one input (the hybrid hash join) read from
// numbered input ports: port 1 carries the blocking build side, port 0 the
// streaming probe side.
//
// Tuples are never materialized between pipelined operators: a select feeding
// an assign hands tuples over as they are produced, and only genuinely
// blocking operators (sort, group-by, the join build) buffer their
// input. Tuples travel between instances in fixed-size frames (batches), as
// in Hyracks proper, so the per-tuple channel cost is amortized across a
// frame.
//
// # Cancellation
//
// The emit function handed to Operator.Run reports downstream demand: it
// returns false once every consumer instance has returned, at which point the
// producer should stop producing. This is how a LimitOp that has seen enough
// tuples stops the datasource scans feeding it instead of draining them.
// Internally each instance owns a done channel that is closed when its Run
// returns; producers blocked on a full input channel select on that done
// channel, so an early-returning consumer can never deadlock its upstream.
//
// # Streaming
//
// ExecuteStream is the primary entry point: it starts the job and returns a
// pull-based frame Cursor fed by a bounded channel, so result size never
// dictates memory. Closing the cursor, or cancelling its context, re-uses the
// emit-demand machinery above to stop the whole job. Execute is the
// materializing wrapper that drains a cursor to completion.
//
// # Determinism
//
// Execute gathers sink output per sink-instance and concatenates it in
// partition order, so a shuffle-free pipeline (scan -> select -> assign ->
// sink over one-to-one connectors) reproduces the storage scan order exactly.
// A Cursor delivers frames in arrival order across sink instances (emit order
// within an instance), so multi-instance sinks interleave nondeterministically
// — the same contract as a merging connector; plans that need a total order
// end in a parallelism-1 sort, whose stream is deterministic.
package hyracks

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"asterixdb/internal/adm"
	"asterixdb/internal/runfile"
)

// Tuple is one row flowing between operators: a fixed-width slice of ADM
// values whose column meaning is established by the producing operator.
type Tuple []adm.Value

// In iterates one operator instance's input port. It pulls tuple frames off
// the port's channel and hands tuples out one at a time; Next reports false
// when every producer has finished and the stream is exhausted.
type In struct {
	ch <-chan []Tuple
	// failed is non-nil only in distributed runs: it is closed when the job
	// is failed from outside (a remote node died), unblocking consumers whose
	// remote producers will never deliver the end-of-stream that would close
	// ch. Single-process runs keep the plain channel-receive fast path.
	failed <-chan struct{}
	// prof, when profiling, counts arriving frames/tuples at frame-refill
	// granularity; nil on the unprofiled path.
	prof *instProf
	cur  []Tuple
	idx  int
}

// Next returns the next input tuple, or false at end of stream. An exhausted
// frame returns to the frame pool before the next one is pulled: every
// interior frame has exactly one consumer, so once the consumer has moved
// past it nothing can reference it again.
func (in *In) Next() (Tuple, bool) {
	for in.idx >= len(in.cur) {
		if in.cur != nil {
			putFrame(in.cur)
			in.cur = nil
		}
		var f []Tuple
		var ok bool
		if in.failed == nil {
			f, ok = <-in.ch
		} else {
			select {
			case f, ok = <-in.ch:
			case <-in.failed:
				return nil, false
			}
		}
		if !ok {
			return nil, false
		}
		if in.prof != nil {
			in.prof.framesIn++
			in.prof.tuplesIn += int64(len(f))
		}
		in.cur, in.idx = f, 0
	}
	t := in.cur[in.idx]
	in.idx++
	return t, true
}

// framePool recycles the []Tuple frames that travel interior edges and feed
// the sink cursor: outPort.push and the sink emit path acquire; In.Next and
// Cursor.Next release after the consumer has moved past a frame. Frames
// handed out via Cursor.NextFrame belong to the caller and are never pooled.
// Frames abandoned on teardown (a consumer that returned early, a producer
// whose send lost to the done signal) simply fall to the garbage collector —
// a pooling miss, never a reuse hazard, because a frame enters the pool only
// from the single place that owns it at that point in its lifecycle.
var framePool sync.Pool

// getFrame returns an empty frame with at least frameSize capacity.
func getFrame(frameSize int) []Tuple {
	if v := framePool.Get(); v != nil {
		return v.([]Tuple)[:0]
	}
	return make([]Tuple, 0, frameSize)
}

// putFrame clears a frame's tuple references (so recycling cannot pin
// records) and returns it to the pool.
func putFrame(f []Tuple) {
	if cap(f) == 0 {
		return
	}
	f = f[:cap(f)]
	for i := range f {
		f[i] = nil
	}
	framePool.Put(f[:0])
}

// ConnectorKind enumerates the connector types Hyracks provides.
type ConnectorKind string

// The connector kinds of Section 4.1 that compiled jobs use.
const (
	OneToOne                ConnectorKind = "OneToOneConnector"
	MToNPartitioning        ConnectorKind = "MToNPartitioningConnector"
	MToNReplicating         ConnectorKind = "MToNReplicatingConnector"
	MToNPartitioningMerging ConnectorKind = "MToNPartitioningMergingConnector"
)

// ReachesAll reports whether producer instance p can send tuples to every
// consumer instance (the M:N kinds) rather than to instance p % consumers
// alone (one-to-one). Routing, end-of-stream fan-out and the remote-producer
// accounting of a distributed run all follow this one rule.
func (k ConnectorKind) ReachesAll() bool { return k != OneToOne }

// Operator is one node of a Hyracks job DAG. Implementations consume their
// input partitions and produce output partitions; blocking operators consume
// all input before emitting.
type Operator interface {
	// Name identifies the operator in EXPLAIN output and the Figure 6 test.
	Name() string
	// Parallelism is the number of instances evaluated in parallel.
	Parallelism() int
	// Blocking reports whether the operator must consume all of its input
	// before producing any output (e.g. sort, the build side of a hash join,
	// a global aggregate).
	Blocking() bool
	// Run executes one instance of the operator for the given partition.
	// ins holds one tuple stream per input port (empty for source operators;
	// ins[0] is the primary input). The emit function forwards a tuple
	// downstream and returns false once no consumer wants further tuples,
	// at which point Run should return early.
	Run(partition int, ins []*In, emit func(Tuple) bool) error
}

// Connector routes tuples from a producer operator to a consumer operator.
type Connector struct {
	Kind ConnectorKind
	// HashColumns selects the columns hashed by partitioning connectors.
	HashColumns []int
}

// Edge wires the output of one operator to an input port of another through a
// connector. Port 0 is the primary input; the hybrid hash join reads its
// build side from port 1.
type Edge struct {
	From      int // operator index
	To        int // operator index
	Port      int // consumer input port
	Connector Connector
}

// Job is a DAG of operators and connectors, the unit Hyracks accepts for
// execution.
type Job struct {
	Operators []Operator
	Edges     []Edge
	// FrameSize overrides the number of tuples shipped per channel send.
	// Zero means the default; the translator derives a smaller frame from the
	// job's memory budget so tiny-budget runs exercise real frame boundaries.
	FrameSize int
	// Spill is the job's run-file manager and resident-byte accountant, set
	// for every job that has blocking operators. The runtime closes it after
	// the last operator instance exits — on every termination path — which
	// removes any run files still on disk.
	Spill *runfile.Manager
	// Profile enables per-operator instrumentation: the run's JobProfile is
	// available from Cursor.Profile once the job has finished.
	Profile bool
}

// Add appends an operator and returns its index.
func (j *Job) Add(op Operator) int {
	j.Operators = append(j.Operators, op)
	return len(j.Operators) - 1
}

// Connect wires from -> to (input port 0) with the given connector.
func (j *Job) Connect(from, to int, c Connector) {
	j.ConnectPort(from, to, 0, c)
}

// ConnectPort wires from -> to on the given consumer input port.
func (j *Job) ConnectPort(from, to, port int, c Connector) {
	j.Edges = append(j.Edges, Edge{From: from, To: to, Port: port, Connector: c})
}

// Describe renders the job in a compact textual form (one operator per line,
// bottom-up, with the connector that feeds its consumer), the format asserted
// by the Figure 6 test and printed by EXPLAIN.
func (j *Job) Describe() string {
	var sb strings.Builder
	for i, op := range j.Operators {
		sb.WriteString(op.Name())
		for _, e := range j.Edges {
			if e.From == i {
				fmt.Fprintf(&sb, "  --%s-->  %s", e.Connector.Kind, j.Operators[e.To].Name())
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// checkAcyclic returns an error if the job graph has a cycle: Kahn's
// algorithm must reach every operator.
func (j *Job) checkAcyclic() error {
	indeg := make([]int, len(j.Operators))
	for _, e := range j.Edges {
		indeg[e.To]++
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	reached := 0
	for len(ready) > 0 {
		n := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		reached++
		for _, e := range j.Edges {
			if e.From == n {
				indeg[e.To]--
				if indeg[e.To] == 0 {
					ready = append(ready, e.To)
				}
			}
		}
	}
	if reached != len(j.Operators) {
		return fmt.Errorf("hyracks: job graph has a cycle")
	}
	return nil
}

// defaultFrameSize is the number of tuples shipped per channel send when the
// job does not set its own FrameSize. Like Hyracks' fixed-size frames it
// amortizes the cross-instance handoff cost; it also bounds how many tuples a
// producer buffers before a consumer sees them (and therefore how far a scan
// overruns a limit's cancellation).
const defaultFrameSize = 64

// FrameSizeForBudget derives a job frame size (in tuples) from a memory
// budget (in bytes): a zero (unlimited) budget keeps the default, a finite
// one shrinks the frame so in-flight channel buffers scale down with it and
// tiny-budget tests cross real frame boundaries deterministically.
func FrameSizeForBudget(budget int64) int {
	if budget <= 0 {
		return defaultFrameSize
	}
	fs := int(budget / 4096)
	if fs < 4 {
		return 4
	}
	if fs > defaultFrameSize {
		return defaultFrameSize
	}
	return fs
}

// channelBuffer is the per-instance input channel capacity in frames. It
// bounds how far a producer can run ahead of a consumer.
const channelBuffer = 16

// outPort is the producer-side state for one out edge: per-consumer-instance
// frame buffers plus the channels and done signals of the consumer. In a
// distributed run, consumer instances placed on other nodes have a nil
// channel slot; frames routed to them are serialized through the DistSpec's
// Send hook instead. An outPort belongs to exactly one producer-instance
// goroutine, so the remote-liveness fields need no synchronization.
type outPort struct {
	edge      Edge
	edgeIdx   int // index into job.Edges (wire identity)
	consumers []chan []Tuple
	done      []chan struct{}
	alive     *int32
	bufs      [][]Tuple
	frameSize int
	scratch   []byte // reused hash-key encoding buffer
	// prof, when profiling, counts frames leaving the instance; nil on the
	// unprofiled path.
	prof *instProf

	// Distributed-run fields; all nil/false in single-process mode.
	dist       *DistSpec
	hasRemote  bool            // any consumer instance lives on another node
	remoteLive bool            // remote consumers still accept frames
	failed     <-chan struct{} // job-level failure signal
	onSendErr  func(error)
}

// remoteAlive reports whether remote consumer instances still demand tuples.
// Remote demand is optimistic: it stays true until the job fails or a wire
// send errors, because per-instance remote completion is not tracked.
func (o *outPort) remoteAlive() bool {
	if !o.hasRemote || !o.remoteLive {
		return false
	}
	select {
	case <-o.failed:
		o.remoteLive = false
		return false
	default:
		return true
	}
}

// send ships a full or final frame to consumer instance p, dropping it if
// that instance already returned. Frames bound for a remote instance are
// serialized synchronously through the DistSpec; a wire error marks the
// remote side dead (demand collapses) and is surfaced once via onSendErr.
func (o *outPort) send(p int) {
	f := o.bufs[p]
	if len(f) == 0 {
		return
	}
	o.bufs[p] = nil
	if o.prof != nil {
		o.prof.framesOut++
	}
	if o.consumers[p] == nil { // remote consumer instance
		if o.remoteAlive() {
			if err := o.dist.Send(o.edgeIdx, p, f); err != nil {
				o.remoteLive = false
				if o.onSendErr != nil {
					o.onSendErr(err)
				}
			}
		}
		putFrame(f)
		return
	}
	select {
	case o.consumers[p] <- f:
	case <-o.done[p]:
		// Consumer instance finished early; the frame is discarded.
	}
}

// push routes one tuple into the port's frame buffers, flushing frames as
// they fill.
func (o *outPort) push(producerPartition int, t Tuple) {
	var p int
	c := o.edge.Connector
	switch {
	case c.Kind == MToNReplicating:
		for p := range o.consumers {
			if o.bufs[p] == nil {
				o.bufs[p] = getFrame(o.frameSize)
			}
			o.bufs[p] = append(o.bufs[p], t)
			if len(o.bufs[p]) >= o.frameSize {
				o.send(p)
			}
		}
		return
	case !c.Kind.ReachesAll():
		p = producerPartition % len(o.consumers)
	case c.Kind == MToNPartitioningMerging && len(c.HashColumns) == 0:
		p = 0 // pure N:1 merge into instance 0
	default:
		p = o.hashPartition(t)
	}
	if o.bufs[p] == nil {
		o.bufs[p] = getFrame(o.frameSize)
	}
	o.bufs[p] = append(o.bufs[p], t)
	if len(o.bufs[p]) >= o.frameSize {
		o.send(p)
	}
}

// flush ships every partially filled frame and recycles frames that were
// acquired but never received a tuple.
func (o *outPort) flush() {
	for p := range o.bufs {
		if f := o.bufs[p]; len(f) == 0 {
			if f != nil {
				o.bufs[p] = nil
				putFrame(f)
			}
			continue
		}
		o.send(p)
	}
}

// Execute runs the job and returns the tuples emitted by sink operators
// (operators with no outgoing edge) in Cursor.Gather's deterministic
// (operator, partition) order. Callers that do not need the whole result
// materialized should use ExecuteStream directly.
func Execute(job *Job) ([]Tuple, error) {
	cur, err := ExecuteStream(context.Background(), job)
	if err != nil {
		return nil, err
	}
	// Gathering to exhaustion shuts the cursor down, but the deferred Close
	// (idempotent) also covers panics in a sink's tuple handling.
	defer cur.Close()
	return cur.Gather()
}

func outgoing(edges []Edge, op int) []Edge {
	var out []Edge
	for _, e := range edges {
		if e.From == op {
			out = append(out, e)
		}
	}
	return out
}

// hashPartition selects the consumer instance for a tuple by hashing the
// connector's hash columns' keys with adm.KeyPartition, storage's placement
// function. It must be a pure function of the column values so equal keys
// always land in the same instance; the port's scratch buffer is reused
// across tuples to keep the key encoding allocation-free.
func (o *outPort) hashPartition(t Tuple) int {
	o.scratch = o.scratch[:0]
	for _, col := range o.edge.Connector.HashColumns {
		if col < len(t) {
			o.scratch = adm.EncodeKey(o.scratch, t[col])
		}
	}
	return adm.KeyPartition(o.scratch, len(o.consumers))
}

// ----------------------------------------------------------------------------
// Operator library
//
// Hyracks provides a library of operators (the paper counts 53); the subset
// below covers what AQL physical plans need: source scans, flat-map (the one
// pipelined operator: select, assign, unnest, index probes), sort, limit,
// hash group-by (every aggregation: keyed, scalar, whole or split into local
// and global halves), and the two-activity hybrid hash join.
// ----------------------------------------------------------------------------

// PassthroughOp forwards its input unchanged. The translator ends a job in
// one (the distribute-result sink) when the tuples reaching it already are the
// result.
type PassthroughOp struct {
	Label      string
	Partitions int
}

// Name implements Operator.
func (o *PassthroughOp) Name() string { return o.Label }

// Parallelism implements Operator.
func (o *PassthroughOp) Parallelism() int { return o.Partitions }

// Blocking implements Operator.
func (o *PassthroughOp) Blocking() bool { return false }

// Run implements Operator.
func (o *PassthroughOp) Run(p int, ins []*In, emit func(Tuple) bool) error {
	return drive(ins[0], o.Stage(p, emit))
}

// SourceOp produces tuples from a per-partition source function.
type SourceOp struct {
	Label      string
	Partitions int
	// Produce is called once per partition and must call emit for every
	// tuple; when emit returns false the source should stop producing.
	Produce func(partition int, emit func(Tuple) bool) error
}

// Name implements Operator.
func (o *SourceOp) Name() string { return o.Label }

// Parallelism implements Operator.
func (o *SourceOp) Parallelism() int { return o.Partitions }

// Blocking implements Operator.
func (o *SourceOp) Blocking() bool { return false }

// Run implements Operator.
func (o *SourceOp) Run(partition int, _ []*In, emit func(Tuple) bool) error {
	return o.Produce(partition, emit)
}

// FlatMapOp expands each input tuple into zero or more output tuples. Every
// pipelined operator of a compiled plan is one: a select emits the tuple or
// nothing, an assign the widened tuple, an unnest or index nested-loop probe
// one tuple per item or match.
type FlatMapOp struct {
	Label      string
	Partitions int
	Fn         func(partition int, t Tuple, emit func(Tuple) bool) error
}

// Name implements Operator.
func (o *FlatMapOp) Name() string { return o.Label }

// Parallelism implements Operator.
func (o *FlatMapOp) Parallelism() int { return o.Partitions }

// Blocking implements Operator.
func (o *FlatMapOp) Blocking() bool { return false }

// Run implements Operator.
func (o *FlatMapOp) Run(p int, ins []*In, emit func(Tuple) bool) error {
	return drive(ins[0], o.Stage(p, emit))
}

// SortOp sorts its input by the given columns (all ascending unless Desc). It
// is an external merge sort (Hold and Run, in spill.go): sorted runs spill to
// run files whenever the budget share fills and are merged on emit; an input
// that never fills it is one in-memory run. It is a HoldStage, so it runs
// inside a fused chain as well as on its own.
type SortOp struct {
	Label      string
	Partitions int
	Columns    []int
	Desc       []bool
	// Limit, when positive, emits only the first Limit rows of the sorted
	// order, and the sort keeps only the rows that can still be among them.
	Limit int
	// Spill is the operator's share of the job memory budget; it decides
	// only when the sort spills. Nil (a hand-built operator) never does.
	Spill *runfile.Budget
}

// Name implements Operator.
func (o *SortOp) Name() string { return o.Label }

// Parallelism implements Operator.
func (o *SortOp) Parallelism() int { return o.Partitions }

// Blocking implements Operator.
func (o *SortOp) Blocking() bool { return true }

// compareTuples orders two tuples by the operator's sort columns.
func (o *SortOp) compareTuples(a, b Tuple) (int, error) {
	for k, col := range o.Columns {
		c, err := adm.Compare(a[col], b[col])
		if err != nil {
			return 0, err
		}
		if c == 0 {
			continue
		}
		if len(o.Desc) > k && o.Desc[k] {
			return -c, nil
		}
		return c, nil
	}
	return 0, nil
}

// sortRows stably sorts rows in place by the operator's sort columns.
func (o *SortOp) sortRows(rows []Tuple) error {
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		c, err := o.compareTuples(rows[i], rows[j])
		if err != nil {
			sortErr = err
			return false
		}
		return c < 0
	})
	return sortErr
}

// LimitOp skips Offset tuples, forwards at most N, and then returns, which
// cancels the producers feeding it instead of draining them (per instance;
// plans constrain it to a single partition for a global limit).
type LimitOp struct {
	Label      string
	Partitions int
	N          int
	Offset     int
}

// Name implements Operator.
func (o *LimitOp) Name() string { return o.Label }

// Parallelism implements Operator.
func (o *LimitOp) Parallelism() int { return o.Partitions }

// Blocking implements Operator.
func (o *LimitOp) Blocking() bool { return false }

// Run implements Operator.
func (o *LimitOp) Run(p int, ins []*In, emit func(Tuple) bool) error {
	return drive(ins[0], o.Stage(p, emit))
}

// HashGroupOp groups its input by key columns and emits one tuple per group:
// the key columns, then one value per aggregate in Aggs. It is every
// aggregation a compiled job runs — a group-by, whose with-variables are
// folded aggregates or listify bags, and a scalar aggregate, which has no key
// columns and so one group. It folds in the spill table (Run, in spill.go):
// each group keeps one accumulator per aggregate, and under memory pressure a
// victim partition's accumulators move to a run file and are merged one
// level down. A keyless operator emits its one group even on empty input,
// except in the Local stage: an aggregate over nothing is one value, a keyed
// group-by over nothing is no rows.
type HashGroupOp struct {
	Label      string
	Partitions int
	// KeyColumns are the grouping columns of an input row. A Global
	// operator's input leads with the keys, so there only their number
	// counts.
	KeyColumns []int
	// Aggs are the aggregates each group folds, in output order.
	Aggs []GroupAgg
	// Split is the operator's stage of a split aggregation.
	Split AggSplit
	// Spill is the operator's share of the job memory budget; it decides
	// only when partitions spill. Nil (a hand-built operator, a scalar
	// aggregate) never does.
	Spill *runfile.Budget
}

// AggSplit is a HashGroupOp's stage of an aggregation split into a
// per-partition local half and a global half (Figure 6).
type AggSplit int

const (
	// Whole folds input rows and emits finished values: an unsplit
	// aggregation (the zero value).
	Whole AggSplit = iota
	// Local folds input rows and emits each group's accumulator tuple — the
	// form a spill writes — for a Global operator to merge.
	Local
	// Global merges accumulator tuples, as a reloaded run is merged, and
	// emits finished values.
	Global
)

// Name implements Operator.
func (o *HashGroupOp) Name() string { return o.Label }

// Parallelism implements Operator.
func (o *HashGroupOp) Parallelism() int { return o.Partitions }

// Blocking implements Operator.
func (o *HashGroupOp) Blocking() bool { return true }

// HybridHashJoinOp joins two inputs on equality of join keys. The build side
// streams in on input port 1 and is fully consumed into a hash table first
// (the blocking Join Build activity); the probe side then streams through
// port 0 (Join Probe). This mirrors the HybridHash Join operator's two
// Activities described in Section 4.1. Both sides must be partitioned on the
// join key by their incoming connectors so equal keys meet in one instance.
//
// The operator is a robust dynamic hybrid hash join (Jahangiri et al.,
// "Design Trade-offs for a Robust Dynamic Hybrid Hash Join"; Run, in
// spill.go): the build table is the spill table's bag of build rows per key,
// probe tuples of resident partitions stream out at once, those of evicted
// partitions are deferred to probe runs, and each spilled (build, probe)
// pair is joined by the same body at the next level-salted hash — falling
// back to a budget-chunked block nested-loop join on pathological skew.
//
// With nil BuildKey and ProbeKey every pair matches: the operator is the
// nested-loop (cross product) join, its build side typically broadcast.
//
// With Nest set it is a nest join (a hash group-join): each probe tuple is
// emitted exactly once, with the list of its matching build tuples, so a
// probe tuple with no match survives with an empty list. All build tuples of
// a key share one partition at every level, so a probe tuple meets all its
// matches in one place even after a spill.
type HybridHashJoinOp struct {
	Label      string
	Partitions int
	// BuildKey / ProbeKey extract the join keys; both nil for a keyless join.
	BuildKey func(Tuple) adm.Value
	ProbeKey func(Tuple) adm.Value
	// Combine merges a probe tuple with a matching build tuple.
	Combine func(probe, build Tuple) Tuple
	// Nest, when set, replaces Combine: it makes the one output tuple of a
	// probe tuple from all its matches in build arrival order (nil when
	// nothing matched).
	Nest func(probe Tuple, matches []Tuple) Tuple
	// Spill is the operator's share of the job memory budget; it decides
	// only when build partitions are evicted. Nil (a hand-built operator)
	// never evicts.
	Spill *runfile.Budget
}

// Name implements Operator.
func (o *HybridHashJoinOp) Name() string { return o.Label }

// Parallelism implements Operator.
func (o *HybridHashJoinOp) Parallelism() int { return o.Partitions }

// Blocking implements Operator.
func (o *HybridHashJoinOp) Blocking() bool { return true }
