package asterixdb

import (
	"context"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/hyracks"
)

// Cursor is a pull-based stream of query result values:
//
//	cur, err := inst.QueryStream(ctx, src)
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//		use(cur.Value())
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Every query runs as a Hyracks job, and the cursor is fed directly by that
// job through a bounded frame channel, so only O(frame x operators) tuples
// are in flight at any time regardless of result size; closing the cursor
// early (or cancelling the context it was opened under) stops the scans
// feeding the job.
//
// A Cursor is not safe for concurrent use; Close is idempotent.
type Cursor struct {
	ctx    context.Context
	stream *hyracks.Cursor // the executing job; nil once finished

	val  adm.Value
	err  error
	done bool
	prof *hyracks.JobProfile

	phases  Phases
	start   time.Time // when the job started
	firstAt time.Time // when Next returned the first row; zero before it
}

// Phases is where one statement's time went, in nanoseconds, phase after
// phase: parsing its source, compiling its query into a plan, building the
// plan's job, the job's start to its first row, and its first row to its
// end. The phases never overlap, so they sum to at most the statement's wall
// time; what is left is the leading statements, the caller's own work between
// rows, and whatever preceded the parse. A phase the statement did not pass
// through on this process is zero: a cluster coordinator's cursor measures
// only the two row phases.
type Phases struct {
	ParseNanos    int64 `json:"parseNanos"`
	CompileNanos  int64 `json:"compileNanos"`
	JobBuildNanos int64 `json:"jobBuildNanos"`
	FirstRowNanos int64 `json:"firstRowNanos"`
	LastRowNanos  int64 `json:"lastRowNanos"`
}

// Phases returns the statement's phase times. The row phases are final once
// the cursor has finished (exhausted or closed).
func (c *Cursor) Phases() Phases { return c.phases }

// profileKey marks a context as requesting job profiling.
type profileKey struct{}

// WithProfiling marks ctx so queries run under it collect a per-operator
// JobProfile, available from Cursor.Profile after the cursor is exhausted
// or closed.
func WithProfiling(ctx context.Context) context.Context {
	return context.WithValue(ctx, profileKey{}, true)
}

// ProfilingRequested reports whether WithProfiling marked ctx; the
// cluster controller uses it to forward the request to its nodes.
func ProfilingRequested(ctx context.Context) bool {
	on, _ := ctx.Value(profileKey{}).(bool)
	return on
}

// Profile returns the per-operator profile of the executed job. It is
// non-nil only after the cursor has finished (exhausted or closed) for a
// query run under WithProfiling.
func (c *Cursor) Profile() *hyracks.JobProfile { return c.prof }

// Next advances to the next result value, reporting false at end of stream,
// on error, on cancellation of the cursor's context, or after Close. When it
// returns false, Err separates exhaustion from failure.
func (c *Cursor) Next() bool {
	if c.done {
		return false
	}
	if err := c.ctx.Err(); err != nil {
		c.finish(err)
		return false
	}
	for {
		t, ok := c.stream.Next()
		if !ok {
			c.finish(c.stream.Err())
			return false
		}
		if len(t) > 0 {
			if c.firstAt.IsZero() {
				c.firstAt = time.Now()
				c.phases.FirstRowNanos = int64(c.firstAt.Sub(c.start))
			}
			c.val = t[0]
			return true
		}
	}
}

// Value returns the result the last successful Next advanced to.
func (c *Cursor) Value() adm.Value { return c.val }

// Err returns the error that terminated the stream, if any. A cursor closed
// early by its consumer reports nil; one ended by context cancellation
// reports the context's error.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor: the job's goroutines are cancelled and Close
// blocks until they exit. Safe to call more than once.
func (c *Cursor) Close() error {
	if !c.done {
		c.finish(nil)
	}
	return nil
}

func (c *Cursor) finish(err error) {
	c.done = true
	if c.firstAt.IsZero() {
		c.phases.FirstRowNanos = int64(time.Since(c.start))
	} else {
		c.phases.LastRowNanos = int64(time.Since(c.firstAt))
	}
	if c.err == nil {
		c.err = err
	}
	closeErr := c.stream.Close()
	if c.err == nil {
		c.err = closeErr
	}
	c.prof = c.stream.Profile()
	c.stream = nil
}

// Drain exhausts the cursor and returns every remaining value in the
// deterministic order of hyracks.Cursor.Gather — the materializing path
// behind Execute/Query, and the cluster controller's Execute.
func (c *Cursor) Drain() ([]adm.Value, error) {
	if c.done {
		return nil, c.err
	}
	if err := c.ctx.Err(); err != nil {
		c.finish(err)
		return nil, err
	}
	tuples, err := c.stream.Gather()
	c.finish(err)
	if c.err != nil {
		return nil, c.err
	}
	out := make([]adm.Value, 0, len(tuples))
	for _, t := range tuples {
		if len(t) > 0 {
			out = append(out, t[0])
		}
	}
	return out, nil
}

// NewJobCursor wraps a hyracks frame cursor in the public Cursor API; the
// cluster coordinator uses it to front the gather cursor collecting result
// frames from node controllers. A nil stream yields an already-exhausted
// cursor: the result of a request whose final statement is not a query.
func NewJobCursor(ctx context.Context, stream *hyracks.Cursor) *Cursor {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Cursor{ctx: ctx, stream: stream, done: stream == nil, start: time.Now()}
}

// QueryStream executes AQL statements and returns a streaming Cursor over
// the final statement's results. Leading statements (use dataverse, set,
// DDL, updates) execute to completion first; the last statement is typically
// a query, whose compiled job streams into the cursor as it runs. A final
// non-query statement yields an empty cursor. The caller must Close the
// cursor; cancelling ctx also terminates the stream.
func (in *Instance) QueryStream(ctx context.Context, src string) (*Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	stmts, err := Parse(src)
	ph := Phases{ParseNanos: int64(time.Since(start))}
	if err != nil {
		return nil, err
	}
	r, q, _, err := in.prelude(ctx, stmts, false)
	if err != nil {
		return nil, err
	}
	if q == nil {
		return NewJobCursor(ctx, nil), nil
	}
	return r.queryCursor(ctx, q, algebra.Options{}, ph)
}

// queryCursor compiles one query expression and starts its job, returning
// the cursor the job streams into. There is no other way to evaluate a query:
// an expression the compiler cannot plan is CompileQuery's typed error, and
// runtime errors from the executing job propagate through Cursor.Err. ph
// carries the phases timed before the compile.
func (r *Request) queryCursor(ctx context.Context, e aql.Expr, opts algebra.Options, ph Phases) (*Cursor, error) {
	_, job, err := r.compile(e, opts, &ph)
	if err != nil {
		return nil, err
	}
	return r.startJob(ctx, job, ph)
}

// startJob starts a compiled job and returns the cursor it streams into,
// carrying the phases timed before the start.
func (in *Instance) startJob(ctx context.Context, job *hyracks.Job, ph Phases) (*Cursor, error) {
	job.Profile = ProfilingRequested(ctx)
	start := time.Now()
	fc, err := hyracks.ExecuteStream(ctx, job)
	if err != nil {
		return nil, err
	}
	cur := NewJobCursor(ctx, fc)
	cur.phases, cur.start = ph, start
	return cur, nil
}
