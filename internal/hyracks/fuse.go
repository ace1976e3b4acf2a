package hyracks

import "strings"

// This file implements one-to-one operator fusion: a job-build-time pass
// that collapses maximal chains of same-parallelism operators linked by
// port-0 OneToOne edges (datasource-scan -> select -> assign ->
// distribute-result is the canonical shape) into a single FusedOp whose Run
// composes the stage functions. A chain may pass through a sort that holds
// its input until the input ends (the secondary-index access path's
// btree-search -> sort(primary-keys) -> btree-search is the canonical one).
// Every fused edge saves one goroutine and one frame-channel handoff per
// partition; a typical scan pipeline at parallelism P collapses from 4P
// goroutines and 3P channel hops to P goroutines and none. The pass runs in
// translator.BuildJob (unless fusion is disabled), so the fused shape is
// visible in EXPLAIN output and tests can assert exactly what fused.

// PushStage is implemented by non-blocking operators that can run as one
// stage of a fused pipeline: instead of pulling from an input channel, the
// stage exposes a push function that processes one tuple at a time.
type PushStage interface {
	Operator
	// Stage returns the push function for one instance, bound to its
	// downstream emit. The returned function processes one input tuple
	// (calling emit zero or more times) and reports whether the stage wants
	// more input — false stops the upstream, exactly like emit returning
	// false does between unfused operators (a satisfied limit, a closed
	// cursor).
	Stage(partition int, emit func(Tuple) bool) func(Tuple) (more bool, err error)
}

// drive is the one pull loop behind every pipelined operator and the sort: it
// feeds an input port to a push function until the stream ends, the function
// wants no more input, or it fails. An unfused operator's Run drives its own
// Stage (a sort its Held.Push); FusedOp.Run drives the composed chain.
func drive(in *In, push func(Tuple) (more bool, err error)) error {
	for {
		t, ok := in.Next()
		if !ok {
			return nil
		}
		if more, err := push(t); err != nil || !more {
			return err
		}
	}
}

// Stage implements PushStage.
func (o *FlatMapOp) Stage(partition int, emit func(Tuple) bool) func(Tuple) (bool, error) {
	stop := false
	wrapped := func(t Tuple) bool {
		if !emit(t) {
			stop = true
			return false
		}
		return true
	}
	return func(t Tuple) (bool, error) {
		if err := o.Fn(partition, t, wrapped); err != nil {
			return false, err
		}
		return !stop, nil
	}
}

// Stage implements PushStage.
func (o *LimitOp) Stage(_ int, emit func(Tuple) bool) func(Tuple) (bool, error) {
	skipped, n := 0, 0
	return func(t Tuple) (bool, error) {
		if n >= o.N {
			return false, nil
		}
		if skipped < o.Offset {
			skipped++
			return true, nil
		}
		if !emit(t) {
			return false, nil
		}
		n++
		return n < o.N, nil
	}
}

// Stage implements PushStage.
func (o *PassthroughOp) Stage(_ int, emit func(Tuple) bool) func(Tuple) (bool, error) {
	return func(t Tuple) (bool, error) {
		return emit(t), nil
	}
}

// HoldStage is implemented by a blocking operator that can run as one stage
// of a fused pipeline: it holds its input until the input ends and only then
// emits. The sort is the one such operator.
type HoldStage interface {
	Operator
	// Hold starts one instance.
	Hold(partition int) Held
}

// Held is one instance of a HoldStage: the accumulate half (Push), the emit
// half (Finish), and the release of whatever the instance holds. An
// unfused operator's Run is "drive the input into Push, then Finish"; a
// FusedOp calls Finish once its head has returned, or skips it on an error
// or an early stop. Release runs on every path, after Finish or instead of
// it.
type Held interface {
	// Push accumulates one input tuple; more is false only with an error.
	Push(t Tuple) (more bool, err error)
	// Finish emits what was accumulated, stopping once emit returns false.
	Finish(emit func(Tuple) bool) error
	// Release frees the instance's memory and run files. It is idempotent.
	Release()
}

// FusedOp is a maximal chain of one-to-one operators running as a single
// operator: one goroutine per partition executes every stage back to back,
// with no frames, channels or handoffs between them. Ops[0] may be a
// SourceOp (the chain then has no input port); every other element
// implements PushStage or HoldStage, and a HoldStage never heads the chain.
type FusedOp struct {
	Ops []Operator
}

// Name renders the chain so EXPLAIN shows exactly what fused.
func (o *FusedOp) Name() string {
	names := make([]string, len(o.Ops))
	for i, op := range o.Ops {
		names[i] = op.Name()
	}
	return "fused[" + strings.Join(names, " -> ") + "]"
}

// Parallelism implements Operator.
func (o *FusedOp) Parallelism() int { return o.Ops[0].Parallelism() }

// Blocking implements Operator: a chain is blocking when one of its stages
// holds its input.
func (o *FusedOp) Blocking() bool {
	for _, op := range o.Ops {
		if op.Blocking() {
			return true
		}
	}
	return false
}

// Run implements Operator.
func (o *FusedOp) Run(partition int, ins []*In, emit func(Tuple) bool) error {
	return o.run(partition, ins, emit, nil)
}

// held is one HoldStage instance of a running chain with the emit of the
// stages below it.
type held struct {
	h    Held
	emit func(Tuple) bool
}

// run composes the chain's stage functions and drives them from the head:
// the source's Produce when the head is a SourceOp, otherwise the instance's
// input port. Once the head returns, the holding stages emit in
// upstream-to-downstream order, each into the stages below it (a stage below
// may hold in turn). A stage error stops the pipeline and is reported
// exactly like the unfused operator's Run returning it; on an error, or once
// the chain's consumer wants nothing more, the holding stages are released
// without emitting. When profiling, counts[i] receives the number of tuples
// component i emitted; it is nil otherwise.
func (o *FusedOp) run(partition int, ins []*In, emit func(Tuple) bool, counts []int64) error {
	counted := func(i int, down func(Tuple) bool) func(Tuple) bool {
		if counts == nil {
			return down
		}
		return func(t Tuple) bool {
			counts[i]++
			return down(t)
		}
	}
	src, isSrc := o.Ops[0].(*SourceOp)
	first := 0
	if isSrc {
		first = 1
	}
	var holds []held // downstream first while composing
	stopped := false
	down := emit
	if o.Blocking() {
		down = func(t Tuple) bool {
			if !emit(t) {
				stopped = true
				return false
			}
			return true
		}
	}
	defer func() {
		for _, h := range holds {
			h.h.Release()
		}
	}()
	var stageErr error
	var head func(Tuple) (bool, error)
	for i := len(o.Ops) - 1; i >= first; i-- {
		var st func(Tuple) (bool, error)
		if hs, ok := o.Ops[i].(HoldStage); ok {
			h := hs.Hold(partition)
			holds = append(holds, held{h, counted(i, down)})
			st = h.Push
		} else {
			st = o.Ops[i].(PushStage).Stage(partition, counted(i, down))
		}
		head = st
		down = func(t Tuple) bool {
			more, err := st(t)
			if err != nil {
				if stageErr == nil {
					stageErr = err
				}
				return false
			}
			return more
		}
	}
	var err error
	if isSrc {
		err = src.Produce(partition, counted(0, down))
	} else {
		err = drive(ins[0], head)
	}
	// The first failure wins: a stage's error reaches the head only as a
	// false emit, so whatever the head reports afterwards is secondary.
	if stageErr != nil {
		return stageErr
	}
	if err != nil {
		return err
	}
	for i := len(holds) - 1; i >= 0 && !stopped; i-- {
		if err := holds[i].h.Finish(holds[i].emit); err != nil {
			return err
		}
		if stageErr != nil {
			return stageErr
		}
		holds[i].h.Release()
	}
	return nil
}

// FlatOperators returns the job's operators with fused chains expanded: each
// FusedOp appears followed by its component operators. Tooling and tests
// that inspect post-fusion jobs share it instead of hand-unwrapping FusedOp.
// (A fused component's own Parallelism equals its chain's — equal
// parallelism is a fusion precondition.)
func (j *Job) FlatOperators() []Operator {
	out := make([]Operator, 0, len(j.Operators))
	for _, op := range j.Operators {
		out = append(out, op)
		if fused, ok := op.(*FusedOp); ok {
			out = append(out, fused.Ops...)
		}
	}
	return out
}

// FuseJob rewrites a job with every fusable chain collapsed into a FusedOp.
// An edge From -> To fuses when it is the producer's only output and the
// consumer's only input (any port), it is a port-0 OneToOne connector (or an
// MToNPartitioningMerging connector whose producer has a single instance —
// nothing to merge, so it degenerates to one-to-one), both operators have
// equal parallelism, the consumer is a PushStage or a HoldStage, and the
// producer is a PushStage, a HoldStage or a SourceOp. A HoldStage joins a
// chain only through its input edge: one behind a real merge (an order-by
// sort gathering P > 1 instances) stays unfused, and so does every blocking
// operator that is not a HoldStage (the hash group-by, the hash join). The
// input job is not modified; if nothing fuses it is returned unchanged.
func FuseJob(job *Job) *Job {
	n := len(job.Operators)
	inCount := make([]int, n)
	outCount := make([]int, n)
	for _, e := range job.Edges {
		inCount[e.To]++
		outCount[e.From]++
	}
	next := make([]int, n)
	prev := make([]int, n)
	for i := range next {
		next[i], prev[i] = -1, -1
	}
	for _, e := range job.Edges {
		if e.Port != 0 {
			continue
		}
		switch e.Connector.Kind {
		case OneToOne:
		case MToNPartitioningMerging:
			// A merging connector with a single producer instance degenerates
			// to a one-to-one handoff: there is nothing to merge and (with the
			// equal-parallelism check below) exactly one consumer instance, so
			// the edge fuses like any other pipelined hop.
			if job.Operators[e.From].Parallelism() != 1 {
				continue
			}
		default:
			continue
		}
		if outCount[e.From] != 1 || inCount[e.To] != 1 {
			continue
		}
		from, to := job.Operators[e.From], job.Operators[e.To]
		if from.Parallelism() != to.Parallelism() || !isStage(to) {
			continue
		}
		if _, ok := from.(*SourceOp); !ok && !isStage(from) {
			continue
		}
		next[e.From], prev[e.To] = e.To, e.From
	}
	// A holding stage whose input did not fuse would head its chain: cut it
	// off. (A holding stage left heading a chain by a cut would still run
	// correctly; no compiled plan chains two.)
	fused := false
	for i, op := range job.Operators {
		if _, ok := op.(HoldStage); ok && prev[i] == -1 && next[i] != -1 {
			prev[next[i]], next[i] = -1, -1
		}
	}
	for _, to := range next {
		fused = fused || to != -1
	}
	if !fused {
		return job
	}

	out := &Job{FrameSize: job.FrameSize, Spill: job.Spill, Profile: job.Profile}
	mapped := make([]int, n)
	for i := range mapped {
		mapped[i] = -1
	}
	for i, op := range job.Operators {
		if prev[i] != -1 {
			continue // interior or tail: emitted with its chain head
		}
		if next[i] == -1 {
			mapped[i] = out.Add(op)
			continue
		}
		var chain []Operator
		for j := i; j != -1; j = next[j] {
			chain = append(chain, job.Operators[j])
		}
		idx := out.Add(&FusedOp{Ops: chain})
		for j := i; j != -1; j = next[j] {
			mapped[j] = idx
		}
	}
	for _, e := range job.Edges {
		if next[e.From] == e.To {
			continue // internal to a chain
		}
		out.ConnectPort(mapped[e.From], mapped[e.To], e.Port, e.Connector)
	}
	return out
}

// isStage reports whether op can run as a non-head stage of a fused chain.
func isStage(op Operator) bool {
	switch op.(type) {
	case PushStage, HoldStage:
		return true
	}
	return false
}
