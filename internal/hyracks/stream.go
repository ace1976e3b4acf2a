package hyracks

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the streaming face of the runtime: ExecuteStream runs a job
// and hands its sink output back as a pull-based frame cursor instead of a
// materialized [][]Tuple slab. Execute (hyracks.go) is a thin wrapper over
// Cursor.Gather, which restores the deterministic per-instance gather order
// the materializing API always had. ExecuteStreamDist (dist.go) runs
// the same machinery with some operator instances placed on other nodes.

// streamBuffer is the capacity, in frames, of the channel connecting the
// job's sink instances to the cursor. Together with the per-edge channel
// buffers it bounds how many tuples a job holds in flight ahead of a slow
// consumer: O(frameSize x (operators + streamBuffer)), never the full result.
const streamBuffer = 8

// Frame is one batch of sink output: the tuples one sink instance emitted in
// order, tagged with the sink operator index and instance partition so a
// consumer that wants the materializing API's deterministic (operator,
// partition) gather order can rebuild it.
type Frame struct {
	// Op is the sink operator's index in Job.Operators.
	Op int
	// Partition is the sink instance that produced the frame.
	Partition int
	// Tuples holds the frame's tuples in emit order.
	Tuples []Tuple
}

// Cursor is a pull-based stream over an executing job's sink output. Frames
// arrive in completion order across sink instances (within one instance,
// emit order is preserved); a single-instance sink therefore yields a fully
// deterministic stream. The consumer must call Close (or cancel the context
// passed to ExecuteStream) to release the job's goroutines; closing
// mid-stream propagates through the runtime's upstream-cancellation
// machinery and stops the scans feeding the job.
type Cursor struct {
	frames chan Frame
	// closed tells sink instances to stop producing; their emit functions
	// return false, which cascades cancellation upstream.
	closed    chan struct{}
	closeOnce sync.Once
	// done is closed once every operator goroutine has exited and err is
	// final.
	done chan struct{}

	mu      sync.Mutex
	jobErr  error       // first operator error
	ctxErr  error       // context cancellation, if it ended the stream
	profile *JobProfile // set before done closes when Job.Profile was on

	stopped atomic.Bool // set by Close: Next must not serve buffered tuples
	cur     Frame
	idx     int
}

// Profile returns the run's JobProfile. It is nil until the job has
// finished (every operator goroutine exited) and always nil when the job
// ran without Job.Profile.
func (c *Cursor) Profile() *JobProfile {
	select {
	case <-c.done:
	default:
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.profile
}

// SetProfile attaches an externally assembled profile; the cluster
// controller uses it on gather cursors, where the per-node profiles
// arrive over the wire. It must be called before the cursor finishes.
func (c *Cursor) SetProfile(p *JobProfile) {
	c.mu.Lock()
	c.profile = p
	c.mu.Unlock()
}

// NextFrame returns the next sink output frame, or false once the stream is
// exhausted (job finished, cursor closed, or context cancelled). Check Err
// after the final frame.
func (c *Cursor) NextFrame() (Frame, bool) {
	f, ok := <-c.frames
	return f, ok
}

// Next returns the next sink tuple, iterating frames transparently. Frames
// consumed through Next are recycled into the frame pool once the cursor has
// moved past them (the returned Tuple slice headers stay valid — recycling
// only clears the frame's own array); frames taken via NextFrame belong to
// the caller and are never recycled.
func (c *Cursor) Next() (Tuple, bool) {
	if c.stopped.Load() {
		return nil, false
	}
	for c.idx >= len(c.cur.Tuples) {
		f, ok := c.NextFrame()
		if !ok {
			return nil, false
		}
		putFrame(c.cur.Tuples)
		c.cur, c.idx = f, 0
	}
	t := c.cur.Tuples[c.idx]
	c.idx++
	return t, true
}

// Gather drains the cursor to exhaustion and returns every sink tuple not yet
// consumed, concatenated in (sink operator, partition) order with each
// instance's emit order preserved. That order is independent of scheduling —
// a shuffle-free scan reproduces storage order exactly — and it is the one
// materializing gather behind Execute and the engine's Execute/Query.
func (c *Cursor) Gather() ([]Tuple, error) {
	buckets := map[int]map[int][]Tuple{} // sink op -> partition -> tuples
	// The first "frame" is whatever Next left unread of its current one.
	f, ok := Frame{Op: c.cur.Op, Partition: c.cur.Partition, Tuples: c.cur.Tuples[c.idx:]}, true
	c.cur, c.idx = Frame{}, 0
	for ; ok; f, ok = c.NextFrame() {
		parts := buckets[f.Op]
		if parts == nil {
			parts = map[int][]Tuple{}
			buckets[f.Op] = parts
		}
		parts[f.Partition] = append(parts[f.Partition], f.Tuples...)
	}
	var out []Tuple
	for _, op := range sortedKeys(buckets) {
		parts := buckets[op]
		for _, p := range sortedKeys(parts) {
			out = append(out, parts[p]...)
		}
	}
	return out, c.Err()
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Err returns the error that terminated the stream: the context's error if
// cancellation ended it, otherwise the first operator error, otherwise nil.
// It is fully determined once Next/NextFrame has returned false.
func (c *Cursor) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctxErr != nil {
		return c.ctxErr
	}
	return c.jobErr
}

// Close stops the job: sink instances observe the close on their next emit,
// return, and cancellation cascades to the sources. Close blocks until every
// operator goroutine has exited (so a caller asserting goroutine counts can
// rely on it) and returns the first operator error, if any. It is idempotent
// and safe to call concurrently with Next.
func (c *Cursor) Close() error {
	c.stopped.Store(true)
	c.closeOnce.Do(func() { close(c.closed) })
	<-c.done
	// Drain any frames buffered between the sinks and the consumer so the
	// channel's memory is released promptly.
	for range c.frames {
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobErr
}

func (c *Cursor) recordJobErr(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.jobErr == nil {
		c.jobErr = err
	}
	c.mu.Unlock()
}

// ExecuteStream starts the job and returns a Cursor over its sink output.
// Execution is identical to Execute — one goroutine per operator instance
// and none besides, frame-batched bounded channels, upstream cancellation —
// except that sink instances feed the cursor's bounded channel instead of
// buffering their output, so a pure streaming pipeline holds only
// O(frame x operators) tuples in flight regardless of result size.
// Cancelling ctx or closing the cursor terminates the job's goroutines.
func ExecuteStream(ctx context.Context, job *Job) (*Cursor, error) {
	cur, _, err := executeStream(ctx, job, nil)
	return cur, err
}

// executeStream is the shared execution core. With a nil spec every operator
// instance is local and the run is exactly the historical single-process
// ExecuteStream. With a spec, only instances the spec declares local get
// goroutines and channels; frames routed to remote instances are serialized
// through spec.Send, and frames arriving from remote producers are injected
// through the returned DistRun. The job's goroutines are its local
// instances: the context's end is a context.AfterFunc, the last instance to
// exit runs the completion, and a slice with no local instance completes
// before executeStream returns.
func executeStream(ctx context.Context, job *Job, spec *DistSpec) (*Cursor, *DistRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := job.checkAcyclic(); err != nil {
		return nil, nil, err
	}
	frameSize := job.FrameSize
	if frameSize <= 0 {
		frameSize = defaultFrameSize
	}
	nOps := len(job.Operators)

	// Every node of a distributed run compiles the identical job, so an
	// edge's index in job.Edges doubles as its wire identity.
	edges := job.Edges

	isLocal := func(op, p int) bool {
		if spec == nil {
			return true
		}
		return spec.Local(op, p)
	}

	// Number of input ports per operator.
	ports := make([]int, nOps)
	for _, e := range edges {
		if e.Port < 0 {
			return nil, nil, fmt.Errorf("hyracks: negative input port %d", e.Port)
		}
		if e.Port+1 > ports[e.To] {
			ports[e.To] = e.Port + 1
		}
	}

	// inputs[op][port][partition] feeds each instance; instDone[op][partition]
	// is closed when that instance's Run returns, unblocking producers.
	// Remote instances keep nil slots in both, so partition-indexed routing
	// math is identical in local and distributed runs.
	inputs := make([][][]chan []Tuple, nOps)
	instDone := make([][]chan struct{}, nOps)
	alive := make([]int32, nOps)
	for i, op := range job.Operators {
		par := op.Parallelism()
		if par <= 0 {
			return nil, nil, fmt.Errorf("hyracks: operator %s has parallelism %d", op.Name(), par)
		}
		inputs[i] = make([][]chan []Tuple, ports[i])
		for q := range inputs[i] {
			inputs[i][q] = make([]chan []Tuple, par)
		}
		instDone[i] = make([]chan struct{}, par)
		for p := 0; p < par; p++ {
			if !isLocal(i, p) {
				continue
			}
			alive[i]++
			for q := range inputs[i] {
				inputs[i][q][p] = make(chan []Tuple, channelBuffer)
			}
			instDone[i][p] = make(chan struct{})
		}
	}

	// remaining[op][port] counts producer instances that may still feed the
	// port's local consumer channels; when it reaches zero those channels are
	// closed. Local producer instances always count (they retire via
	// producerDone at teardown). A remote producer instance counts only if it
	// can target a local consumer instance — it retires via the wire
	// end-of-stream record its node sends when the instance exits
	// (DistRun.InjectEOS).
	remaining := make([][]int, nOps)
	for i := range remaining {
		remaining[i] = make([]int, ports[i])
	}
	for ei := range edges {
		e := edges[ei]
		par := job.Operators[e.From].Parallelism()
		for p := 0; p < par; p++ {
			if isLocal(e.From, p) {
				remaining[e.To][e.Port]++
			} else if remoteProducerTargetsLocal(e, p, job, isLocal) {
				remaining[e.To][e.Port]++
			}
		}
	}
	// A declared port with no producers would never be closed: close it now so
	// consumers see an immediate end of stream instead of deadlocking.
	closeInputs := func(op, port int) {
		for _, ch := range inputs[op][port] {
			if ch != nil {
				close(ch)
			}
		}
	}
	for i := range remaining {
		for q, r := range remaining[i] {
			if r == 0 {
				closeInputs(i, q)
			}
		}
	}
	var remainingMu sync.Mutex
	producerDone := func(to, port int) {
		remainingMu.Lock()
		remaining[to][port]--
		if remaining[to][port] == 0 {
			closeInputs(to, port)
		}
		remainingMu.Unlock()
	}

	cur := &Cursor{
		frames: make(chan Frame, streamBuffer),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}

	var run *DistRun
	var failed chan struct{}
	if spec != nil {
		failed = make(chan struct{})
		run = &DistRun{
			job:          job,
			inputs:       inputs,
			instDone:     instDone,
			producerDone: producerDone,
			failed:       failed,
			cur:          cur,
		}
	}

	isSink := make([]bool, nOps)
	for i := range job.Operators {
		if len(outgoing(edges, i)) == 0 {
			isSink[i] = true
		}
	}

	// When profiling, every instance gets a private counter block and
	// publishes it here on exit; the unprofiled path keeps all prof
	// pointers nil, so the hot loops pay only dead nil checks.
	var prof *profCollector
	if job.Profile {
		prof = &profCollector{}
	}

	// Cancellation: the context ending closes the cursor, which stops the
	// sinks and cascades upstream exactly like an explicit Close. AfterFunc
	// starts no goroutine for a standard-library context; the function runs
	// on one of its own only if the context ends.
	afterDone := make(chan struct{})
	stopAfter := context.AfterFunc(ctx, func() {
		defer close(afterDone)
		cur.mu.Lock()
		cur.ctxErr = ctx.Err()
		cur.mu.Unlock()
		cur.closeOnce.Do(func() { close(cur.closed) })
		if run != nil {
			// Unblock consumers waiting on frames a remote producer will
			// never deliver; local end-of-stream accounting still runs.
			run.failOnce.Do(func() { close(failed) })
		}
	})

	// Completion runs once every local instance has exited, on the goroutine
	// of the last one, so the stream is final. The job's spill manager (if
	// any) is closed first, removing any run files an operator left behind —
	// this runs on every termination path, so a caller that has observed
	// Close/done can rely on zero leaked files.
	complete := func() {
		if job.Spill != nil {
			if err := job.Spill.Close(); err != nil {
				cur.recordJobErr(err)
			}
		}
		if prof != nil {
			// After Spill.Close so the job-wide spill counters are final.
			p := prof.finalize(job)
			cur.mu.Lock()
			cur.profile = p
			cur.mu.Unlock()
		}
		close(cur.done)
		if !stopAfter() {
			<-afterDone // the context ended: its error is recorded first
		}
		close(cur.frames)
	}
	var live atomic.Int32
	for _, n := range alive {
		live.Add(n)
	}
	if live.Load() == 0 {
		// A slice of a distributed job may place no instance on this node.
		complete()
		return cur, run, nil
	}

	for opIdx, op := range job.Operators {
		outEdges, outIdx := outgoingIndexed(edges, opIdx)
		for p := 0; p < op.Parallelism(); p++ {
			if !isLocal(opIdx, p) {
				continue
			}
			go func(opIdx, p int, op Operator, outEdges []Edge, outIdx []int) {
				outs := make([]*outPort, len(outEdges))
				for i, e := range outEdges {
					o := &outPort{
						edge:      e,
						edgeIdx:   outIdx[i],
						consumers: inputs[e.To][e.Port],
						done:      instDone[e.To],
						alive:     &alive[e.To],
						bufs:      make([][]Tuple, len(inputs[e.To][e.Port])),
						frameSize: frameSize,
					}
					if spec != nil {
						o.dist = spec
						o.failed = failed
						o.onSendErr = cur.recordJobErr
						for _, ch := range o.consumers {
							if ch == nil {
								o.hasRemote = true
								o.remoteLive = true
								break
							}
						}
					}
					outs[i] = o
				}
				// Sink instances batch their output into frames and feed the
				// cursor; emit reports false once the cursor is closed, which
				// is how cancellation enters the job. The instance's first
				// frame is flushed eagerly (one tuple) so time-to-first-row
				// tracks the first tuple produced, not the first full frame.
				var ip *instProf // non-nil only when profiling
				var sinkBuf []Tuple
				sinkStopped := false
				sinkSentFirst := false
				sendFrame := func() bool {
					if len(sinkBuf) == 0 {
						return !sinkStopped
					}
					f := Frame{Op: opIdx, Partition: p, Tuples: sinkBuf}
					sinkBuf = nil
					select {
					case cur.frames <- f:
						sinkSentFirst = true
						if ip != nil {
							ip.framesOut++
						}
						return true
					case <-cur.closed:
						sinkStopped = true
						return false
					}
				}
				emit := func(t Tuple) bool {
					if len(outs) == 0 {
						if sinkStopped {
							return false
						}
						if sinkBuf == nil {
							sinkBuf = getFrame(frameSize)
						}
						sinkBuf = append(sinkBuf, t)
						if len(sinkBuf) >= frameSize || !sinkSentFirst {
							return sendFrame()
						}
						return true
					}
					live := false
					for _, o := range outs {
						o.push(p, t)
						if atomic.LoadInt32(o.alive) > 0 || o.remoteAlive() {
							live = true
						}
					}
					return live
				}
				ins := make([]*In, ports[opIdx])
				for q := range ins {
					ins[q] = &In{ch: inputs[opIdx][q][p], failed: failed}
				}
				var runErr error
				if prof == nil {
					runErr = op.Run(p, ins, emit)
				} else {
					ip = &instProf{start: time.Now()}
					for _, o := range outs {
						o.prof = ip
					}
					for q := range ins {
						ins[q].prof = ip
					}
					inner := emit
					pemit := func(t Tuple) bool {
						ip.tuplesOut++
						if ip.firstOut == 0 {
							ip.firstOut = int64(time.Since(ip.start))
						}
						return inner(t)
					}
					if fused, ok := op.(*FusedOp); ok {
						ip.stages = make([]int64, len(fused.Ops))
						runErr = fused.run(p, ins, pemit, ip.stages)
					} else {
						runErr = op.Run(p, ins, pemit)
					}
					ip.wall = int64(time.Since(ip.start))
				}
				if runErr != nil {
					cur.recordJobErr(runErr)
				}
				if isSink[opIdx] {
					sendFrame() // flush the final partial frame
				}
				// Instance teardown: flush partial frames, unblock producers
				// targeting this instance, then retire it as a producer —
				// locally via producerDone, and toward remote consumers via
				// the spec's end-of-stream record.
				for _, o := range outs {
					o.flush()
				}
				if ip != nil {
					// Published only now: the teardown flushes above still
					// count frames out.
					prof.add(opIdx, p, op, ip)
				}
				close(instDone[opIdx][p])
				atomic.AddInt32(&alive[opIdx], -1)
				for i, e := range outEdges {
					producerDone(e.To, e.Port)
					if spec != nil && outs[i].hasRemote {
						if err := spec.SendEOS(outIdx[i], p); err != nil {
							cur.recordJobErr(err)
						}
					}
				}
				if live.Add(-1) == 0 {
					complete()
				}
			}(opIdx, p, op, outEdges, outIdx)
		}
	}
	return cur, run, nil
}

// outgoingIndexed returns the edges leaving op together with each edge's
// index in the job's edge slice (its wire identity).
func outgoingIndexed(edges []Edge, op int) ([]Edge, []int) {
	var out []Edge
	var idx []int
	for i, e := range edges {
		if e.From == op {
			out = append(out, e)
			idx = append(idx, i)
		}
	}
	return out, idx
}

// remoteProducerTargetsLocal reports whether remote producer instance p of
// edge e can route tuples to a consumer instance on this node
// (ConnectorKind.ReachesAll decides which instances it can reach).
func remoteProducerTargetsLocal(e Edge, p int, job *Job, isLocal func(op, p int) bool) bool {
	consPar := job.Operators[e.To].Parallelism()
	if !e.Connector.Kind.ReachesAll() {
		return isLocal(e.To, p%consPar)
	}
	for c := 0; c < consPar; c++ {
		if isLocal(e.To, c) {
			return true
		}
	}
	return false
}
