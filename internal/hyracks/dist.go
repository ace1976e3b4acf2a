package hyracks

import (
	"context"
	"fmt"
	"sync"
)

// This file is the runtime's distribution seam. A cluster layer (see
// internal/cluster) runs the SAME job plan on every node: every node compiles
// the identical job, so an edge's index in job.Edges is its identity on the
// wire (DistSpec.Send / DistRun.Inject agree on it). Each node spawns
// goroutines only for the operator instances its placement declares local,
// serializes frames bound for remote instances through DistSpec.Send, and
// injects frames arriving off the wire through DistRun.Inject. Same-node
// edges keep using the bounded channels (and remain eligible for FuseJob
// fusion); only edges whose endpoints straddle nodes touch the network.

// DistSpec tells executeStream which operator instances run on this node and
// how to ship frames to instances elsewhere. All three hooks must be safe
// for concurrent use by multiple producer goroutines.
type DistSpec struct {
	// Local reports whether instance p of operator op runs on this node.
	// It must be a pure function, identical on every node (placement is
	// deterministic).
	Local func(op, p int) bool
	// Send ships one frame for edge idx to remote consumer
	// instance toPart. It is called synchronously from the producing
	// instance's goroutine; the tuples slice is recycled after Send returns,
	// so implementations must serialize (not retain) it. A returned error
	// marks the remote side dead for that producer and is recorded as the
	// job error.
	Send func(edge, toPart int, tuples []Tuple) error
	// SendEOS announces that local producer instance fromPart of edge idx
	// has finished, retiring it from the remote consumers' producer counts.
	// The cluster layer routes it to every node holding consumer instances
	// the producer could target (for partition-preserving connectors, just
	// the node owning instance fromPart%consumerParallelism).
	SendEOS func(edge, fromPart int) error
}

// DistRun is the receive side of a distributed job on one node: the cluster
// layer feeds it frames and end-of-stream records read off the wire, and
// fails it when a peer dies. All methods are safe for concurrent use.
type DistRun struct {
	job          *Job
	inputs       [][][]chan []Tuple
	instDone     [][]chan struct{}
	producerDone func(to, port int)
	failed       chan struct{}
	failOnce     sync.Once
	cur          *Cursor
}

// Inject delivers one frame from a remote producer to local consumer
// instance toPart of edge idx. It blocks until the frame is
// accepted, the consumer instance has finished (frame dropped), or the job
// has failed. Corrupt wire coordinates return an error rather than panic.
//
// Safety: the input channel closes only after every producer of the port has
// retired, and a producer's end-of-stream record travels the same ordered
// connection as its frames — so a frame being injected always precedes its
// producer's retirement and can never race a channel close.
func (r *DistRun) Inject(edge, toPart int, tuples []Tuple) error {
	if edge < 0 || edge >= len(r.job.Edges) {
		return fmt.Errorf("hyracks: inject on unknown edge %d (job has %d)", edge, len(r.job.Edges))
	}
	e := r.job.Edges[edge]
	chs := r.inputs[e.To][e.Port]
	if toPart < 0 || toPart >= len(chs) {
		return fmt.Errorf("hyracks: inject edge %d partition %d out of range [0,%d)", edge, toPart, len(chs))
	}
	ch := chs[toPart]
	if ch == nil {
		return fmt.Errorf("hyracks: inject edge %d partition %d is not local", edge, toPart)
	}
	select {
	case ch <- tuples:
	case <-r.instDone[e.To][toPart]:
		// Consumer instance finished early; the frame is discarded.
	case <-r.failed:
	}
	return nil
}

// InjectEOS retires one remote producer instance of edge idx:
// the wire counterpart of the local producerDone teardown. The cluster layer
// calls it once per end-of-stream record received; when the port's last
// producer (local or remote) retires, its input channels close and local
// consumers see end of stream.
func (r *DistRun) InjectEOS(edge int) error {
	if edge < 0 || edge >= len(r.job.Edges) {
		return fmt.Errorf("hyracks: eos on unknown edge %d (job has %d)", edge, len(r.job.Edges))
	}
	e := r.job.Edges[edge]
	r.producerDone(e.To, e.Port)
	return nil
}

// Fail aborts the job from outside: a peer node died, so frames and
// end-of-stream records this node is waiting for will never arrive. It
// records err as the job error, closes the failure signal (unblocking
// consumers parked in In.Next and producers parked in Inject), and closes
// the cursor so sink instances stop. It deliberately closes no data
// channels — those close only through the producer-retirement invariant, so
// in-flight sends never race a close. Idempotent.
func (r *DistRun) Fail(err error) {
	r.failOnce.Do(func() {
		r.cur.recordJobErr(err)
		close(r.failed)
		r.cur.closeOnce.Do(func() { close(r.cur.closed) })
	})
}

// ExecuteStreamDist starts the job's local slice on this node: goroutines
// and channels exist only for instances spec.Local claims, frames cross
// node boundaries through spec.Send/SendEOS, and the returned DistRun
// receives the inbound side. The returned Cursor streams the output of the
// sink instances placed on THIS node; a coordinator gathers the per-node
// cursors (see NewGatherCursor) into the global result.
func ExecuteStreamDist(ctx context.Context, job *Job, spec *DistSpec) (*Cursor, *DistRun, error) {
	if spec == nil || spec.Local == nil || spec.Send == nil || spec.SendEOS == nil {
		return nil, nil, fmt.Errorf("hyracks: ExecuteStreamDist requires a complete DistSpec")
	}
	return executeStream(ctx, job, spec)
}

// NewGatherCursor builds a Cursor fed by an external gatherer instead of a
// running job: the coordinator of a distributed run pushes frames received
// from the nodes' result streams and finishes the cursor when every node has
// reported completion (or one has failed). push delivers one frame, blocking
// while the consumer lags; it returns false once the consumer has closed the
// cursor or finish has been called, at which point the gatherer should stop
// (and propagate cancellation to the nodes). finish(err) ends the stream,
// recording err (may be nil) as the job error; it is idempotent and must be
// called on every termination path — Close blocks until it runs.
func NewGatherCursor() (cur *Cursor, push func(Frame) bool, finish func(error)) {
	c := &Cursor{
		frames: make(chan Frame, streamBuffer),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Pushers may race finish (a node dies while another node's frames are
	// still arriving), so a single pump goroutine owns c.frames: pushers hand
	// frames to it through in, and only the pump ever closes c.frames.
	in := make(chan Frame)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case f := <-in:
				// A frame already handed over must still reach the consumer
				// even if finish fires first — a graceful finish (all nodes
				// done) races the delivery of the final frame. Only a closed
				// (abandoned) cursor may drop it.
				select {
				case c.frames <- f:
				case <-c.closed:
				}
			case <-stop:
				close(c.frames)
				return
			}
		}
	}()
	var finishOnce sync.Once
	fin := func(err error) {
		finishOnce.Do(func() {
			c.recordJobErr(err)
			close(stop)
			close(c.done)
		})
	}
	p := func(f Frame) bool {
		select {
		case in <- f:
			return true
		case <-c.closed:
			return false
		case <-stop:
			return false
		}
	}
	return c, p, fin
}
