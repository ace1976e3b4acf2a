package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"asterixdb"
	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/translator"
)

// span is one timed call into a layer. Spans are recorded from here, around
// each module's public functions; there is no tracing inside the program yet.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a statement's root span
	Stmt   int    `json:"stmt"`   // shared by the spans of one statement
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, parent, stmt int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Stmt: stmt, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Layer names of the spans under a statement root.
const (
	spanParse   = "aql.parse"
	spanCompile = "algebra.compile" // translator.Compile: build + optimize
	spanJobGen  = "translator.jobgen"
	spanExecute = "hyracks.execute" // ExecuteStream through the last frame
	spanJSON    = "adm.json"        // child of hyracks.execute, one per frame
	spanEval    = "expr.eval"       // an insert's body
	spanStore   = "storage.insert_batch"
)

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, and returns with it the summed duration of the statement
// roots and of their direct children.
func (t *tracer) selfTimes() (self map[string]int64, roots, covered int64) {
	self = map[string]int64{}
	childSum := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		childSum[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		if s.Parent == 0 {
			roots += d
			covered += childSum[s.ID]
			continue
		}
		self[s.Name] += d - childSum[s.ID]
	}
	return self, roots, covered
}

// engine is an in-process instance over the same generated data the server
// was loaded with.
type engine struct {
	inst *asterixdb.Instance
	dir  string
	jobs translator.JobOptions
}

func openEngine(cfg runConfig, def workloadDef, ld load) (*engine, error) {
	dir, err := os.MkdirTemp(cfg.tmp, def.name+"-inproc-*")
	if err != nil {
		return nil, err
	}
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: dir, Journaled: def.journaled})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &engine{inst: inst, dir: dir,
		jobs: translator.JobOptions{Partitions: inst.Store().Partitions(), SpillDir: inst.SpillDir()}}
	for _, s := range append([]string{ddl}, ld.stmts...) {
		if _, err := inst.Execute(s); err != nil {
			e.close()
			return nil, fmt.Errorf("in-process load: %w", err)
		}
	}
	return e, nil
}

func (e *engine) close() {
	e.inst.Close()
	os.RemoveAll(e.dir)
}

// profiled is what one traced query's job profile says.
type profiled struct {
	class string
	prof  *hyracks.JobProfile
	rows  int
}

// plain runs a statement the way the server does, through the public API,
// and checks the answer.
func (e *engine) plain(ctx context.Context, s stmt, buf []byte) ([]byte, error) {
	if s.class == classInsert {
		res, err := e.inst.ExecuteContext(ctx, s.text)
		if err != nil {
			return buf, err
		}
		if res.Count != s.want.rows {
			return buf, fmt.Errorf("insert stored %d records, want %d", res.Count, s.want.rows)
		}
		return buf, nil
	}
	cur, err := e.inst.QueryStream(ctx, s.text)
	if err != nil {
		return buf, err
	}
	defer cur.Close()
	buf = buf[:0]
	for cur.Next() {
		buf = append(adm.AppendJSON(buf, cur.Value()), '\n')
	}
	if err := cur.Err(); err != nil {
		return buf, err
	}
	return buf, checkRows(s.class, buf, s.want)
}

// traced runs a statement layer by layer, one span around each public call,
// and checks the answer. budget, when positive, is the job's memory budget.
func (e *engine) traced(ctx context.Context, tr *tracer, id int, s stmt, budget int64, buf []byte) ([]byte, *hyracks.JobProfile, error) {
	root := tr.begin("statement."+s.class, 0, id)
	defer tr.end(root)
	step := func(name string, fn func() error) error {
		sp := tr.begin(name, root, id)
		defer tr.end(sp)
		return fn()
	}

	var stmts []aql.Statement
	if err := step(spanParse, func() (err error) { stmts, err = aql.Parse(s.text); return }); err != nil {
		return buf, nil, err
	}
	if len(stmts) != 1 {
		return buf, nil, fmt.Errorf("%s: parsed into %d statements", s.class, len(stmts))
	}
	if ins, ok := stmts[0].(*aql.InsertStatement); ok {
		return buf, nil, e.tracedInsert(step, ins, s)
	}
	q, ok := stmts[0].(*aql.QueryStatement)
	if !ok {
		return buf, nil, fmt.Errorf("%s: not a query: %T", s.class, stmts[0])
	}
	var plan *algebra.Plan
	if err := step(spanCompile, func() (err error) {
		plan, err = translator.Compile(q.Body, e.inst, algebra.Options{})
		return
	}); err != nil {
		return buf, nil, err
	}
	var job *hyracks.Job
	if err := step(spanJobGen, func() (err error) {
		opts := e.jobs
		opts.MemoryBudget = budget
		job, err = translator.BuildJob(plan, e.inst, opts)
		return
	}); err != nil {
		return buf, nil, err
	}
	job.Profile = true
	var prof *hyracks.JobProfile
	buf = buf[:0]
	err := step(spanExecute, func() error {
		exec := len(tr.spans) // the id of the span step just opened
		cur, err := hyracks.ExecuteStream(ctx, job)
		if err != nil {
			return err
		}
		for {
			f, ok := cur.NextFrame()
			if !ok {
				break
			}
			sp := tr.begin(spanJSON, exec, id)
			for _, t := range f.Tuples {
				if len(t) > 0 {
					buf = append(adm.AppendJSON(buf, t[0]), '\n')
				}
			}
			tr.end(sp)
		}
		err = errors.Join(cur.Err(), cur.Close())
		prof = cur.Profile()
		return err
	})
	if err != nil {
		return buf, nil, err
	}
	return buf, prof, checkRows(s.class, buf, s.want)
}

func (e *engine) tracedInsert(step func(string, func() error) error, ins *aql.InsertStatement, s stmt) error {
	ds, ok := e.inst.Dataset(ins.Dataset)
	if !ok {
		return fmt.Errorf("insert: no dataset %s", ins.Dataset)
	}
	var recs []*adm.Record
	if err := step(spanEval, func() error {
		v, err := expr.Eval(e.inst.EvalContext(), expr.Env{}, ins.Body)
		if err != nil {
			return err
		}
		list, ok := v.(*adm.OrderedList)
		if !ok {
			return fmt.Errorf("insert body is a %s", v.Tag())
		}
		for _, it := range list.Items {
			recs = append(recs, it.(*adm.Record))
		}
		return nil
	}); err != nil {
		return err
	}
	return step(spanStore, func() error {
		n, err := ds.InsertBatch(recs)
		if err == nil && n != s.want.rows {
			err = fmt.Errorf("insert stored %d records, want %d", n, s.want.rows)
		}
		return err
	})
}

// Statements a traced run replays per class of the workload.
var replayCount = map[string]int{
	classPK: 200, classRange: 200, classSpatial: 200, classText: 200,
	classFilter: 12, classGroupBy: 12, classJoin: 12, classTopK: 12,
	classInsert: 500,
}

// replayed is what replaying a workload's statements in-process measured.
type replayed struct {
	tr       *tracer
	tracedNS int64                // wall of the traced statements
	plainNS  int64                // wall of as many untraced statements of the same streams
	plainLat map[string][]float64 // per class, ms per untraced statement
	profiles []profiled
}

// replay runs a seeded sample of the workload's statements, alternating
// between the traced path and the program's own path so both see the same
// mix and the same cache state.
func (e *engine) replay(ctx context.Context, def workloadDef, d *data, res *runResult) *replayed {
	r := &replayed{tr: newTracer(), plainLat: map[string][]float64{}}
	var buf []byte
	id := 0
	for ci, classes := range def.clients {
		st := d.newStream(ci, len(def.clients))
		total := 0
		for _, c := range classes {
			total += 2 * replayCount[c]
		}
		for k := 0; k < total && ctx.Err() == nil; k++ {
			// Classes alternate every two statements: one traced, one plain.
			s := st.next(classes[(k/2)%len(classes)])
			res.attempted++
			start := time.Now()
			var err error
			if k%2 == 0 {
				id++
				var prof *hyracks.JobProfile
				buf, prof, err = e.traced(ctx, r.tr, id, s, 0, buf)
				r.tracedNS += int64(time.Since(start))
				if prof != nil {
					r.profiles = append(r.profiles, profiled{class: s.class, prof: prof, rows: s.want.rows})
				}
			} else {
				buf, err = e.plain(ctx, s, buf)
				wall := time.Since(start)
				r.plainNS += int64(wall)
				r.plainLat[s.class] = append(r.plainLat[s.class], ms(wall))
			}
			if err != nil {
				res.failure(fmt.Errorf("in-process %s: %w", s.class, err))
			}
		}
	}
	return r
}

// opWall is the largest wall time, in ms, among the profile rows whose
// operator name starts with prefix: the partitions of an operator run side by
// side, so the slowest one is what the statement waited for.
func opWall(p *hyracks.JobProfile, prefix string) (wallMS, firstOutMS float64, found bool) {
	for _, o := range p.Operators {
		if !strings.HasPrefix(o.Name, prefix) {
			continue
		}
		found = true
		wallMS = max(wallMS, ms(time.Duration(o.WallNanos)))
		if f := ms(time.Duration(o.FirstOutNanos)); f > 0 && (firstOutMS == 0 || f < firstOutMS) {
			firstOutMS = f
		}
	}
	return wallMS, firstOutMS, found
}

// rowsExamined counts the tuples a job's access paths produced: the output of
// every operator instance that read no input.
func rowsExamined(p *hyracks.JobProfile) int64 {
	var n int64
	for _, o := range p.Operators {
		if o.TuplesIn == 0 && o.FramesIn == 0 && o.Stage <= 0 {
			n += o.TuplesOut
		}
	}
	return n
}
